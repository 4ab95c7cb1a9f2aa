"""DSSoC assembly and evaluation (Fig. 3a).

A DSSoC couples the fixed components (MCU cores, sensor, MIPI interface)
with one point of the accelerator design space running one E2E policy.
Evaluating it yields the quantities every later stage consumes:
inference latency/throughput, SoC power, TDP and compute payload weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams, PolicyNetwork, build_policy_network
from repro.nn.workload import NetworkWorkload, lower_network
from repro.power.soc_power import AcceleratorPowerBreakdown, accelerator_power
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.report import RunReport
from repro.scalesim.simulator import SystolicArraySimulator
from repro.soc.components import fixed_components_power_w
from repro.soc.weight import ComputeWeight, compute_weight


@dataclass(frozen=True)
class DssocDesign:
    """One candidate: an E2E policy paired with an accelerator config."""

    policy: PolicyHyperparams
    accelerator: AcceleratorConfig

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"{self.policy.identifier} on [{self.accelerator.describe()}]"


@dataclass(frozen=True)
class DssocEvaluation:
    """Full evaluation of a DSSoC design.

    Attributes:
        design: The evaluated design point.
        report: Accelerator simulation report.
        power: Accelerator power breakdown at the evaluated frame rate.
        soc_power_w: Total SoC power (accelerator + fixed components).
        tdp_w: Thermal design power (SoC power at peak throughput),
            which sizes the heatsink.
        weight: Compute payload weight (heatsink + motherboard).
    """

    design: DssocDesign
    report: RunReport
    power: AcceleratorPowerBreakdown
    soc_power_w: float
    tdp_w: float
    weight: ComputeWeight

    @property
    def latency_seconds(self) -> float:
        """Single-inference latency."""
        return self.report.latency_seconds

    @property
    def frames_per_second(self) -> float:
        """Peak accelerator throughput."""
        return self.report.frames_per_second

    @property
    def compute_efficiency_fps_per_w(self) -> float:
        """Throughput per watt (the 'HE' metric of Section V-B)."""
        if self.soc_power_w <= 0:
            return 0.0
        return self.frames_per_second / self.soc_power_w

    @property
    def compute_weight_g(self) -> float:
        """Total compute payload weight in grams."""
        return self.weight.total_g


class DssocEvaluator:
    """Evaluates DSSoC design points.

    Each policy's network and its lowered workload are cached, so an
    evaluator builds and lowers a policy once however many accelerator
    points it pairs it with.
    """

    def __init__(self, operating_fps: Optional[float] = None):
        """``operating_fps`` caps the evaluated frame rate (e.g. to the
        sensor rate); by default designs run back-to-back at their own
        peak throughput, the Phase 2 convention."""
        if operating_fps is not None and operating_fps <= 0:
            raise ConfigError("operating_fps must be positive")
        self.operating_fps = operating_fps
        self._network_cache: dict[str, PolicyNetwork] = {}
        self._workload_cache: dict[str, NetworkWorkload] = {}

    def network_for(self, policy: PolicyHyperparams) -> PolicyNetwork:
        """Materialise (and cache) the policy network."""
        cached = self._network_cache.get(policy.identifier)
        if cached is None:
            cached = build_policy_network(policy)
            self._network_cache[policy.identifier] = cached
        return cached

    def workload_for(self, policy: PolicyHyperparams) -> NetworkWorkload:
        """The policy network lowered to an accelerator workload (cached)."""
        cached = self._workload_cache.get(policy.identifier)
        if cached is None:
            cached = lower_network(self.network_for(policy))
            self._workload_cache[policy.identifier] = cached
        return cached

    def evaluate(self, design: DssocDesign) -> DssocEvaluation:
        """Simulate and power-model one design point."""
        simulator = SystolicArraySimulator(design.accelerator)
        report = simulator.run(self.workload_for(design.policy))

        peak_power = accelerator_power(report, design.accelerator,
                                       frames_per_second=None)
        fixed_w = fixed_components_power_w()
        tdp_w = peak_power.total_w + fixed_w

        if self.operating_fps is not None:
            operating = accelerator_power(report, design.accelerator,
                                          frames_per_second=self.operating_fps)
        else:
            operating = peak_power
        soc_power_w = operating.total_w + fixed_w

        return DssocEvaluation(
            design=design,
            report=report,
            power=operating,
            soc_power_w=soc_power_w,
            tdp_w=tdp_w,
            weight=compute_weight(tdp_w),
        )


def evaluate_dssoc(design: DssocDesign,
                   operating_fps: Optional[float] = None) -> DssocEvaluation:
    """One-shot evaluation of a DSSoC design point."""
    return DssocEvaluator(operating_fps=operating_fps).evaluate(design)
