"""The systolic-array accelerator simulator (SCALE-Sim substitute).

Given an :class:`~repro.scalesim.config.AcceleratorConfig` and a lowered
:class:`~repro.nn.workload.NetworkWorkload`, produces per-layer and
network-level timing, utilisation, scratchpad access counts and DRAM
traffic -- the quantities AutoPilot's Phase 2 consumes for performance
and power estimation.

The simulator keeps no cache: each :meth:`SystolicArraySimulator.run`
runs the analytical model.  Reuse happens one level up, where
:class:`~repro.soc.dssoc.DssocEvaluator` stores each finished evaluation
in the process-wide content-addressed cache
(:mod:`repro.core.evalcache`).
"""

from __future__ import annotations

from repro.nn.template import PolicyNetwork
from repro.nn.workload import NetworkWorkload, lower_network
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.dataflow import map_gemm
from repro.scalesim.memory import analyze_traffic
from repro.scalesim.report import LayerReport, RunReport


class SystolicArraySimulator:
    """Analytical simulator for a double-buffered systolic-array NPU.

    Per layer, compute cycles come from the dataflow fold model and DRAM
    cycles from the traffic model; double buffering overlaps them, so the
    layer takes ``max(compute, dram) + first-fill prologue`` cycles.

    Args:
        config: The accelerator design point to simulate.
    """

    def __init__(self, config: AcceleratorConfig):
        self.config = config

    def run(self, workload: NetworkWorkload) -> RunReport:
        """Simulate one inference of the workload."""
        layer_reports = []
        for layer in workload.layers:
            mapping = map_gemm(layer.gemm, self.config)
            traffic = analyze_traffic(layer, mapping, self.config)
            total = max(mapping.compute_cycles, traffic.dram_cycles)
            total += traffic.first_fill_cycles
            layer_reports.append(LayerReport(
                name=layer.name,
                mapping=mapping,
                traffic=traffic,
                total_cycles=total,
            ))

        return RunReport(
            network_name=workload.name,
            layers=tuple(layer_reports),
            clock_hz=self.config.clock_hz,
        )

    def run_network(self, network: PolicyNetwork) -> RunReport:
        """Convenience wrapper: lower a policy network, then simulate it."""
        return self.run(lower_network(network))


def simulate(network: PolicyNetwork, config: AcceleratorConfig) -> RunReport:
    """One-shot simulation of a policy network on an accelerator config."""
    return SystolicArraySimulator(config).run_network(network)
