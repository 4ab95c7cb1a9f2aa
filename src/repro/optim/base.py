"""Shared optimiser interface and result records.

Every optimiser consumes a :class:`~repro.optim.space.DesignSpace` and a
black-box evaluation function mapping an assignment to an objective
vector (minimisation convention), spends a fixed evaluation budget, and
returns the full history -- so optimisers are directly comparable in the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import non_dominated_mask
from repro.optim.space import Assignment, DesignSpace

#: Black-box evaluation: assignment -> objective vector (to minimise).
ObjectiveFn = Callable[[Assignment], Sequence[float]]


@dataclass
class Evaluation:
    """One evaluated design point."""

    assignment: Assignment
    objectives: np.ndarray


@dataclass
class OptimizationResult:
    """History of one optimisation run.

    Hypervolume is computed from the history when asked for
    (:meth:`final_hypervolume`); no per-evaluation curve is kept.
    """

    evaluations: List[Evaluation] = field(default_factory=list)

    @property
    def objective_matrix(self) -> np.ndarray:
        """All evaluated objective vectors as an (n x d) array."""
        if not self.evaluations:
            return np.zeros((0, 0))
        return np.vstack([e.objectives for e in self.evaluations])

    def final_hypervolume(self, reference: Sequence[float]) -> float:
        """Hypervolume of the final Pareto set."""
        if not self.evaluations:
            return 0.0
        return hypervolume(self.objective_matrix, reference)


class CachingEvaluator:
    """Wraps the objective function with deduplication and history.

    All optimisers route evaluations through this wrapper so that (a) a
    design point is never evaluated twice, and (b) the evaluation budget
    counts *unique* simulator invocations, matching how the paper counts
    DSE cost.

    ``reference`` is the hypervolume reference point of the run, kept
    for the optimisers that score against it (the multi-fidelity screen
    and REINFORCE); the evaluator itself computes no hypervolume.
    """

    def __init__(self, space: DesignSpace, objective_fn: ObjectiveFn,
                 budget: int,
                 reference: Optional[Sequence[float]] = None):
        if budget <= 0:
            raise ConfigError("budget must be positive")
        self.space = space
        self.objective_fn = objective_fn
        self.budget = budget
        self.reference = None if reference is None else np.asarray(reference,
                                                                   dtype=float)
        self.result = OptimizationResult()
        self._cache: Dict[Tuple[object, ...], np.ndarray] = {}
        # The whole history as arrays (:meth:`observed`), and how many
        # evaluations they cover.
        self._observed: Optional[Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None
        self._observed_size = 0

    @property
    def evaluations_used(self) -> int:
        """Unique evaluations spent so far."""
        return len(self._cache)

    @property
    def exhausted(self) -> bool:
        """True when the budget is spent."""
        return self.evaluations_used >= self.budget

    def seen(self, assignment: Assignment) -> bool:
        """True when the point was already evaluated."""
        return self.seen_key(self.space.key(assignment))

    def seen_key(self, key: Tuple[object, ...]) -> bool:
        """:meth:`seen` for a point's :meth:`DesignSpace.key`.

        Callers holding keys from :meth:`DesignSpace.sample_rows` use
        this to skip re-validating points they just drew.
        """
        return key in self._cache

    def evaluate(self, assignment: Assignment) -> np.ndarray:
        """Evaluate (or return cached) objectives for an assignment."""
        key = self.space.key(assignment)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.exhausted:
            raise ConfigError("evaluation budget exhausted")
        objectives = np.asarray(self.objective_fn(assignment), dtype=float)
        return self._record(key, assignment, objectives)

    def evaluate_batch(self, assignments: Sequence[Assignment]
                       ) -> List[Optional[np.ndarray]]:
        """Evaluate a group of assignments, in input order.

        Returns one entry per input, in order: the objective vector for
        every point that is cached or fits in the remaining budget, and
        ``None`` for points skipped because the budget ran out.  Unseen
        points are deduplicated within the group and passed to
        ``objective_fn`` one at a time.  The history records points in
        input order, so a grouped run is indistinguishable from a serial
        one.
        """
        keys = [self.space.key(a) for a in assignments]
        for assignment, key in zip(assignments, keys):
            if key not in self._cache and not self.exhausted:
                objectives = np.asarray(self.objective_fn(assignment),
                                        dtype=float)
                self._record(key, assignment, objectives)
        return [self._cache.get(key) for key in keys]

    def observed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The history's encoded inputs, objective matrix and front.

        The SMS-EGO proposal and the multi-fidelity screen read these.
        Each read extends them with only the evaluations recorded since
        the last one, so an optimiser that never reads them pays
        nothing.  The front of the old front plus the new points is the
        whole history's front, row for row and in history order: a
        point that any history point dominates is dominated by a front
        point.  Needs a non-empty history.
        """
        new = self.result.evaluations[self._observed_size:]
        if new:
            x = self.space.encode_many([e.assignment for e in new])
            objectives = np.vstack([e.objectives for e in new])
            front = objectives
            if self._observed is not None:
                old_x, old_objectives, old_front = self._observed
                x = np.vstack([old_x, x])
                front = np.vstack([old_front, objectives])
                objectives = np.vstack([old_objectives, objectives])
            self._observed = (x, objectives, front[non_dominated_mask(front)])
            self._observed_size = len(objectives)
            # Every later read extends these arrays, so a caller must not
            # write into them (as in :meth:`_record`).
            for array in self._observed:
                array.flags.writeable = False
        return self._observed

    def _record(self, key: Tuple[object, ...], assignment: Assignment,
                objectives: np.ndarray) -> np.ndarray:
        """Store one fresh evaluation in the cache and the history.

        Returns the recorded vector.  The cache, the history entry and
        every caller all share this one array, so it is frozen
        (``writeable=False``) -- an accidental in-place mutation anywhere
        downstream would silently corrupt the recorded history.  A
        private copy is frozen, never the caller's array.
        """
        if objectives.ndim != 1:
            raise ConfigError("objective function must return a 1-D vector")
        objectives = np.array(objectives, dtype=float)
        objectives.flags.writeable = False
        self._cache[key] = objectives
        self.result.evaluations.append(
            Evaluation(assignment=dict(assignment), objectives=objectives))
        return objectives


class Optimizer:
    """Base class: subclasses implement :meth:`run`."""

    name = "base"

    def __init__(self, space: DesignSpace, seed: int = 0):
        self.space = space
        self.seed = seed

    def optimize(self, objective_fn: ObjectiveFn, budget: int,
                 reference: Optional[Sequence[float]] = None,
                 screen_fn: Optional[Callable] = None,
                 promotion_eta: float = 0.5) -> OptimizationResult:
        """Spend ``budget`` unique evaluations minimising all objectives.

        ``objective_fn`` is called once per fresh evaluation, in history
        order.  Every optimiser is a deterministic function of its seed
        and the observed values, so calling it again with the same
        inputs rebuilds the run bit-identically: that is how a
        checkpointed run resumes.

        ``screen_fn`` switches on two-tier multi-fidelity evaluation:
        the evaluator becomes a
        :class:`~repro.optim.fidelity.MultiFidelityEvaluator` screening
        proposal groups through the tier-0 bound estimate and promoting
        the top ``promotion_eta`` fraction (plus the safety-rail
        survivors) to the exact tier-1 evaluation.
        """
        if screen_fn is not None:
            # Imported lazily: fidelity depends on this module.
            from repro.optim.fidelity import MultiFidelityEvaluator
            evaluator: CachingEvaluator = MultiFidelityEvaluator(
                self.space, objective_fn, budget,
                screen_fn=screen_fn,
                promotion_eta=promotion_eta,
                reference=reference)
        else:
            evaluator = CachingEvaluator(self.space, objective_fn, budget,
                                         reference=reference)
        rng = np.random.default_rng(self.seed)
        self.run(evaluator, rng)
        return evaluator.result

    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        """Subclass hook: drive evaluations until the budget is spent."""
        raise NotImplementedError
