"""SCALE-Sim-style systolic-array accelerator simulator."""

from repro import _lazy_exports

_EXPORTS = {
    "AcceleratorConfig": "config",
    "Dataflow": "config",
    "PE_DIM_CHOICES": "config",
    "SRAM_KB_CHOICES": "config",
    "MappingStats": "dataflow",
    "map_gemm": "dataflow",
    "TrafficStats": "memory",
    "analyze_traffic": "memory",
    "BoundEstimate": "estimate",
    "WorkloadAggregates": "estimate",
    "estimate_batch": "estimate",
    "lower_workload_aggregates": "estimate",
    "LayerReport": "report",
    "RunReport": "report",
    "SystolicArraySimulator": "simulator",
    "simulate": "simulator",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
