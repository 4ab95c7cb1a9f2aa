"""Shared optimiser interface and result records.

Every optimiser consumes a :class:`~repro.optim.space.DesignSpace` and a
black-box evaluation function mapping an assignment to an objective
vector (minimisation convention), spends a fixed evaluation budget, and
returns the full history plus the Pareto subset -- so optimisers are
directly comparable in the ablation benchmarks.
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
    """History and summary of one optimisation run."""

    evaluations: List[Evaluation] = field(default_factory=list)
    hypervolume_trace: List[float] = field(default_factory=list)

    @property
    def objective_matrix(self) -> np.ndarray:
        """All evaluated objective vectors as an (n x d) array."""
        if not self.evaluations:
            return np.zeros((0, 0))
        return np.vstack([e.objectives for e in self.evaluations])

    def pareto_evaluations(self) -> List[Evaluation]:
        """The non-dominated subset of the history, in evaluation order."""
        if not self.evaluations:
            return []
        mask = non_dominated_mask(self.objective_matrix)
        return [e for e, keep in zip(self.evaluations, mask) if keep]

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
        # Incremental hypervolume state: the current non-dominated front
        # and its volume, so each new evaluation updates the trace in
        # O(front) instead of recomputing over the whole history.
        self._front: Optional[np.ndarray] = None
        self._hv = 0.0
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
        ``objective_fn`` one at a time.  The history and hypervolume
        trace record points in input order, so a grouped run is
        indistinguishable from a serial one.
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
        point.  Unlike the hypervolume front it also holds points
        outside the reference box.  Needs a non-empty history.
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
        """Store one fresh evaluation: cache, history and trace.

        Returns the recorded vector.  The cache, the history entry, the
        hypervolume front and every caller all share this one array, so
        it is frozen (``writeable=False``) -- an accidental in-place
        mutation anywhere downstream would silently corrupt the recorded
        history.  A private copy is frozen, never the caller's array.
        """
        if objectives.ndim != 1:
            raise ConfigError("objective function must return a 1-D vector")
        objectives = np.array(objectives, dtype=float)
        objectives.flags.writeable = False
        self._cache[key] = objectives
        self.result.evaluations.append(
            Evaluation(assignment=dict(assignment), objectives=objectives))
        if self.reference is not None:
            self._hv = self._updated_hypervolume(objectives)
            self.result.hypervolume_trace.append(self._hv)
        return objectives

    def _updated_hypervolume(self, objectives: np.ndarray) -> float:
        """Fold one point into the running front and return the volume.

        Equivalent to ``hypervolume(objective_matrix, reference)`` over
        the full history -- dominated and out-of-reference points add no
        volume -- but costs O(front size), not O(history^2).
        """
        if objectives.shape != self.reference.shape:
            raise ValueError(
                f"objective dim {objectives.shape} does not match "
                f"reference dim {self.reference.shape}")
        if not np.all(objectives < self.reference):
            return self._hv
        if self._front is not None and self._front.shape[0] and np.any(
                np.all(self._front <= objectives[None, :], axis=1)):
            return self._hv
        if self._front is None or self._front.shape[0] == 0:
            front = objectives[None, :]
        else:
            front = np.vstack([self._front, objectives[None, :]])
        volume = hypervolume(front, self.reference)
        self._front = front[non_dominated_mask(front)]
        return volume


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
