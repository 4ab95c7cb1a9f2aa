"""DSSoC assembly and evaluation (Fig. 3a).

A DSSoC couples the fixed components (MCU cores, sensor, MIPI interface)
with one point of the accelerator design space running one E2E policy.
Evaluating it yields the quantities every later stage consumes:
inference latency/throughput, SoC power, TDP and compute payload weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

    A finished evaluation is stored in the process-wide
    :class:`~repro.core.evalcache.EvalCache` under
    :func:`~repro.core.evalcache.evaluation_key`, so each distinct
    (design, operating rate) pair is simulated and power-modelled once
    per process however many evaluators, DSE runs or fine-tunes ask for
    it.  Each policy's network and lowered workload are likewise built
    once per process, on the first miss that needs them.
    """

    def __init__(self, operating_fps: Optional[float] = None):
        """``operating_fps`` caps the evaluated frame rate (e.g. to the
        sensor rate); by default designs run back-to-back at their own
        peak throughput, the Phase 2 convention."""
        if operating_fps is not None and operating_fps <= 0:
            raise ConfigError("operating_fps must be positive")
        self.operating_fps = operating_fps

    # A network and its lowered workload are pure functions of the two
    # hyper-parameters, so one copy per template point serves every
    # evaluator; the 27 Table II points bound both caches.
    @staticmethod
    @lru_cache(maxsize=None)
    def network_for(policy: PolicyHyperparams) -> PolicyNetwork:
        """The policy network, built once per process."""
        return build_policy_network(policy)

    @staticmethod
    @lru_cache(maxsize=None)
    def workload_for(policy: PolicyHyperparams) -> NetworkWorkload:
        """The policy network lowered to an accelerator workload, once
        per process."""
        return lower_network(DssocEvaluator.network_for(policy))

    def evaluate(self, design: DssocDesign) -> DssocEvaluation:
        """Simulate and power-model one design point, or serve it cached.

        One shared-cache lookup either way.  A served evaluation's
        ``design`` is the equal design object it was first computed
        for, so callers that keep both should take the design from the
        evaluation.
        """
        # Imported here: importing repro.core imports this module.
        from repro.core.evalcache import evaluation_key, shared_report_cache

        cache = shared_report_cache()
        key = evaluation_key(design, self.operating_fps)
        evaluation = cache.get(key)
        if evaluation is None:
            evaluation = self._evaluate(design)
            cache.put(key, evaluation)
        return evaluation

    def _evaluate(self, design: DssocDesign) -> DssocEvaluation:
        """Simulate and power-model ``design`` without the shared cache."""
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
