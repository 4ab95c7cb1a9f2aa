"""The systolic-array accelerator simulator (SCALE-Sim substitute).

Given an :class:`~repro.scalesim.config.AcceleratorConfig` and a lowered
:class:`~repro.nn.workload.NetworkWorkload`, produces per-layer and
network-level timing, utilisation, scratchpad access counts and DRAM
traffic -- the quantities AutoPilot's Phase 2 consumes for performance
and power estimation.

:meth:`SystolicArraySimulator.run` memoises reports in the process-wide
content-addressed cache (:mod:`repro.core.evalcache`): the key is
derived from the full workload content (per-layer GEMM shapes and
operand sizes) and the full accelerator configuration, so identical
designs are simulated once across every simulator instance, and two
*different* workloads can never alias -- unlike the earlier
``(workload.name, id(workload))`` key, which never hit in practice and
could return a stale report for a recycled ``id()``.  The DSSoC
evaluator caches its finished evaluations instead and simulates through
:meth:`~SystolicArraySimulator.run_uncached`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.nn.template import PolicyNetwork
from repro.nn.workload import NetworkWorkload, lower_network
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.dataflow import map_gemm
from repro.scalesim.memory import analyze_traffic
from repro.scalesim.report import LayerReport, RunReport


def _report_cache():
    # Imported lazily: repro.core.__init__ transitively imports this
    # module, so a top-level import would be circular.
    from repro.core.evalcache import shared_report_cache
    return shared_report_cache()


class SystolicArraySimulator:
    """Analytical simulator for a double-buffered systolic-array NPU.

    Per layer, compute cycles come from the dataflow fold model and DRAM
    cycles from the traffic model; double buffering overlaps them, so the
    layer takes ``max(compute, dram) + first-fill prologue`` cycles.

    Args:
        config: The accelerator design point to simulate.
        cache: Report cache :meth:`run` consults; ``None`` (the
            default) means the process-wide shared cache.  Supply a
            private :class:`~repro.core.evalcache.EvalCache` to isolate
            a caller from it, or call :meth:`run_uncached` to skip
            caching altogether (e.g. micro-benchmarks measuring raw
            simulation cost).
    """

    def __init__(self, config: AcceleratorConfig, cache=None):
        self.config = config
        self._cache = cache

    @property
    def cache(self):
        """The report cache in effect (shared unless overridden)."""
        if self._cache is None:
            self._cache = _report_cache()
        return self._cache

    def run(self, workload: NetworkWorkload) -> RunReport:
        """Simulate one inference of the workload (cached by content)."""
        from repro.core.evalcache import design_key

        key = design_key(workload, self.config)
        cache = self.cache
        cached = cache.get(key)
        if cached is not None:
            if cached.network_name != workload.name:
                # Same content under a different label: the numbers are
                # identical, only the display name differs.
                return replace(cached, network_name=workload.name)
            return cached
        report = self.run_uncached(workload)
        cache.put(key, report)
        return report

    def run_uncached(self, workload: NetworkWorkload) -> RunReport:
        """Run the analytical model without consulting any cache."""
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


def simulate(network: PolicyNetwork, config: AcceleratorConfig,
             cache: Optional[object] = None) -> RunReport:
    """One-shot simulation of a policy network on an accelerator config."""
    return SystolicArraySimulator(config, cache=cache).run_network(network)
