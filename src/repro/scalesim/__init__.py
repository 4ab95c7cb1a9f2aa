"""SCALE-Sim-style systolic-array accelerator simulator."""

from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
    hardware_space_size,
)
from repro.scalesim.dataflow import MappingStats, map_gemm
from repro.scalesim.estimate import (
    BoundEstimate,
    WorkloadAggregates,
    estimate_batch,
    lower_workload_aggregates,
)
from repro.scalesim.memory import TrafficStats, analyze_traffic
from repro.scalesim.report import LayerReport, RunReport
from repro.scalesim.simulator import SystolicArraySimulator, simulate

__all__ = [
    "AcceleratorConfig",
    "Dataflow",
    "PE_DIM_CHOICES",
    "SRAM_KB_CHOICES",
    "hardware_space_size",
    "MappingStats",
    "map_gemm",
    "TrafficStats",
    "analyze_traffic",
    "BoundEstimate",
    "WorkloadAggregates",
    "estimate_batch",
    "lower_workload_aggregates",
    "LayerReport",
    "RunReport",
    "SystolicArraySimulator",
    "simulate",
]
