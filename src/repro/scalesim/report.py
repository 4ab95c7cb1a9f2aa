"""Simulation result records for the systolic-array simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.scalesim.dataflow import MappingStats
from repro.scalesim.memory import TrafficStats


@dataclass(frozen=True)
class LayerReport:
    """Timing, utilisation and traffic for one network layer."""

    name: str
    mapping: MappingStats
    traffic: TrafficStats
    total_cycles: int

    @property
    def macs(self) -> int:
        """MACs executed by the layer."""
        return self.mapping.macs


@dataclass(frozen=True)
class RunReport:
    """Aggregate simulation result for a full network inference."""

    network_name: str
    layers: Sequence[LayerReport]
    clock_hz: float

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles for one inference."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """Total MACs for one inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def latency_seconds(self) -> float:
        """Wall-clock latency of one inference."""
        return self.total_cycles / self.clock_hz

    @property
    def frames_per_second(self) -> float:
        """Inference throughput (back-to-back frames)."""
        latency = self.latency_seconds
        if latency <= 0:
            return 0.0
        return 1.0 / latency

    @property
    def overall_utilization(self) -> float:
        """Network-level PE utilisation."""
        if not self.layers:
            return 0.0
        denom = self.total_cycles * self.layers[0].mapping.num_pes
        if denom == 0:
            return 0.0
        return min(1.0, self.total_macs / denom)

    @property
    def total_dram_bytes(self) -> int:
        """Total DRAM traffic (bytes) per inference."""
        return sum(l.traffic.dram_total_bytes for l in self.layers)
