"""Phase 2 -- domain-agnostic multi-objective HW-SW co-design (Fig. 1).

Bayesian optimisation (or a pluggable alternative) searches the joint
Table II space for the Pareto frontier of three objectives:

* maximise validated task success rate (from the Phase 1 database);
* minimise accelerator inference latency (SCALE-Sim model);
* minimise SoC power (array + SRAM + DRAM + fixed components).

The output is a set of candidate designs -- Pareto-optimal plus the
full evaluated history -- that Phase 3 lowers onto the target UAV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Type

import numpy as np

from repro.airlearning.database import AirLearningDatabase
from repro.core.spec import TaskSpec, assignment_to_design, build_design_space
from repro.errors import ConfigError
from repro.optim.base import Optimizer, OptimizationResult
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.pareto import non_dominated_mask
from repro.optim.space import Assignment, DesignSpace
from repro.perf.profiler import count
from repro.soc.dssoc import DssocDesign, DssocEvaluation, DssocEvaluator

#: Fractional safety margin applied to the design-space extreme
#: objectives when deriving the hypervolume reference point.
REFERENCE_MARGIN = 0.05


@dataclass(frozen=True)
class CandidateDesign:
    """One evaluated Phase 2 candidate."""

    evaluation: DssocEvaluation
    success_rate: float

    @property
    def design(self) -> DssocDesign:
        """The evaluated design point."""
        return self.evaluation.design

    @property
    def objectives(self) -> np.ndarray:
        """(1 - success, latency_s, soc_power_w) -- all minimised."""
        return np.array([
            1.0 - self.success_rate,
            self.evaluation.latency_seconds,
            self.evaluation.soc_power_w,
        ])

    @property
    def frames_per_second(self) -> float:
        """Peak accelerator throughput."""
        return self.evaluation.frames_per_second

    @property
    def soc_power_w(self) -> float:
        """Total SoC power."""
        return self.evaluation.soc_power_w

    @property
    def compute_weight_g(self) -> float:
        """Compute payload weight."""
        return self.evaluation.compute_weight_g


@dataclass
class Phase2Result:
    """All Phase 2 candidates plus the raw optimisation record."""

    candidates: List[CandidateDesign] = field(default_factory=list)
    optimization: Optional[OptimizationResult] = None
    #: The hypervolume reference point the run used (derived from the
    #: design-space extremes unless the caller overrode it).
    reference: Optional[np.ndarray] = None

    def pareto_candidates(self) -> List[CandidateDesign]:
        """The non-dominated candidates (the Pareto frontier)."""
        if not self.candidates:
            return []
        objectives = np.vstack([c.objectives for c in self.candidates])
        mask = non_dominated_mask(objectives)
        return [c for c, keep in zip(self.candidates, mask) if keep]


class MultiObjectiveDse:
    """Phase 2 driver: wires the evaluation engine into an optimiser.

    Evaluations run in-process, one design at a time, through
    :meth:`DssocEvaluator.evaluate`, which serves a design the process
    already evaluated from the content-addressed shared cache.

    Args:
        database: Validated Phase 1 success rates.
        optimizer_cls: Pluggable search strategy.
        space: The joint design space; Table II by default.
        seed: Optimiser RNG seed.
        optimizer_kwargs: Extra optimiser constructor arguments, e.g.
            ``proposal_batch=q`` to make SMS-EGO propose q candidates
            per GP fit and submit them as one evaluation group.
        fidelity: ``"on"`` screens every proposal group through the
            tier-0 closed-form bound estimator and promotes only the
            top ``promotion_eta`` fraction (plus safety-rail survivors)
            to the exact simulator; ``"off"`` (default) keeps the
            single-fidelity behaviour bit-identical to earlier
            revisions.
        promotion_eta: Successive-halving promotion fraction in
            ``(0, 1]``; only meaningful with ``fidelity="on"``.
    """

    def __init__(self, database: AirLearningDatabase,
                 optimizer_cls: Type[Optimizer] = SmsEgoBayesOpt,
                 space: Optional[DesignSpace] = None, seed: int = 0,
                 optimizer_kwargs: Optional[dict] = None,
                 fidelity: str = "off",
                 promotion_eta: float = 0.5):
        if fidelity not in ("off", "on"):
            raise ConfigError(
                f"fidelity must be 'off' or 'on', got {fidelity!r}")
        if not 0.0 < promotion_eta <= 1.0:
            raise ConfigError("promotion_eta must be in (0, 1]")
        self.database = database
        self.optimizer_cls = optimizer_cls
        self.space = space or build_design_space()
        self.seed = seed
        self.optimizer_kwargs = dict(optimizer_kwargs or {})
        self.fidelity = fidelity
        self.promotion_eta = promotion_eta

    def derive_reference(self) -> List[float]:
        """Hypervolume reference from the design-space extremes.

        The seed implementation hard-coded ``[1.0, 1.0, 50.0]``, which
        silently dropped candidates whose SoC power exceeds 50 W (easily
        reached by the 1024x1024 arrays of Table II) from the
        hypervolume.  Instead, evaluate the two corner designs
        that bound the objectives -- the largest network on the smallest
        accelerator (worst latency) and the largest network on the
        largest accelerator (worst power) -- and pad by
        :data:`REFERENCE_MARGIN` so every feasible candidate lies
        strictly inside the reference.  Both corner evaluations hit the
        shared cache on every run after the first.
        """
        evaluator = DssocEvaluator()
        dims = {dim.name: dim.values for dim in self.space.dimensions}

        def corner(hw_pick) -> DssocEvaluation:
            assignment = {
                "num_layers": max(dims["num_layers"]),
                "num_filters": max(dims["num_filters"]),
                "pe_rows": hw_pick(dims["pe_rows"]),
                "pe_cols": hw_pick(dims["pe_cols"]),
                "ifmap_sram_kb": hw_pick(dims["ifmap_sram_kb"]),
                "filter_sram_kb": hw_pick(dims["filter_sram_kb"]),
                "ofmap_sram_kb": hw_pick(dims["ofmap_sram_kb"]),
            }
            return evaluator.evaluate(assignment_to_design(assignment))

        slowest = corner(min)   # smallest array + SRAMs: latency extreme
        hungriest = corner(max)  # largest array + SRAMs: power extreme
        pad = 1.0 + REFERENCE_MARGIN
        worst_latency = max(slowest.latency_seconds,
                            hungriest.latency_seconds)
        worst_power = max(slowest.soc_power_w, hungriest.soc_power_w)
        # Success objective (1 - success) is bounded by 1.0 exactly; the
        # margin keeps a total-failure candidate strictly inside too.
        return [pad, worst_latency * pad, worst_power * pad]

    def run(self, task: TaskSpec, budget: int = 120,
            reference: Optional[Sequence[float]] = None) -> Phase2Result:
        """Spend ``budget`` unique evaluations and collect candidates.

        The evaluation count is added as ``evals`` to the open span.
        The run is a deterministic function of the seed, the space, the
        optimiser settings and the evaluation model, so a resumed
        pipeline simply calls this again.

        Args:
            task: The task specification (platform + scenario).
            budget: Unique design evaluations to spend.
            reference: Optional hypervolume reference override; derived
                from the design-space extremes when omitted.
        """
        if budget <= 0:
            raise ConfigError("budget must be positive")
        candidates: List[CandidateDesign] = []

        def objectives(assignment: Assignment) -> Sequence[float]:
            candidate = self.evaluate_design(assignment_to_design(assignment),
                                             task)
            candidates.append(candidate)
            return candidate.objectives

        optimizer = self.optimizer_cls(self.space, seed=self.seed,
                                       **self.optimizer_kwargs)
        if reference is None:
            reference = self.derive_reference()

        fidelity_kwargs: dict = {}
        if self.fidelity == "on":
            from repro.soc.estimate import Tier0Estimator

            estimator = Tier0Estimator()

            def screen(assignments: Sequence[Assignment]) -> np.ndarray:
                designs = [assignment_to_design(a) for a in assignments]
                bounds = estimator.estimate_designs(designs)
                # The success objective has no cheaper tier: the Phase 1
                # database lookup *is* the exact value, so the bound
                # vector carries it verbatim.
                failure = np.asarray([
                    1.0 - self.database.success_rate(d.policy, task.scenario)
                    for d in designs])
                return np.stack(
                    [failure, bounds.latency_s, bounds.soc_power_w], axis=1)

            fidelity_kwargs = {"screen_fn": screen,
                               "promotion_eta": self.promotion_eta}

        record = optimizer.optimize(objectives, budget=budget,
                                    reference=reference, **fidelity_kwargs)
        count("evals", len(record.evaluations))
        return Phase2Result(candidates=candidates, optimization=record,
                            reference=np.asarray(reference, dtype=float))

    def evaluate_design(self, design: DssocDesign,
                        task: TaskSpec) -> CandidateDesign:
        """Evaluate one design point, served from the shared cache when
        the process already evaluated it."""
        evaluation = DssocEvaluator().evaluate(design)
        success = self.database.success_rate(design.policy, task.scenario)
        return CandidateDesign(evaluation=evaluation, success_rate=success)
