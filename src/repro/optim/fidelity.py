"""Two-tier multi-fidelity evaluation with successive-halving promotion.

Tier-0 is a *screen*: a cheap, certified lower-bound estimate of every
objective (see :mod:`repro.scalesim.estimate` / :mod:`repro.soc.estimate`
for the Phase 2 screen).  Tier-1 is the exact evaluation the budget
pays for.  :class:`MultiFidelityEvaluator` runs successive halving
inside each proposal group: the whole group is scored at tier-0, the
top ``promotion_eta`` fraction (by hypervolume contribution of the
optimistic bounds) is promoted to tier-1, and -- the safety rail -- so
is every *potential dominator*: a point whose lower-bound vector is
component-wise ``<=`` some already-observed front point, because its
true objectives might still displace that front point and no screen can
rule it out.  Everything else is pruned: its optimistic bounds already
fail to dominate any front member, so at best it would fill a gap the
``promotion_eta`` quota exists to explore.  Pruned points cost no
tier-1 budget and are never fed to the GP.

Determinism and resume: a promotion decision is a pure function of the
screen bounds (deterministic per design), the evaluator's observed
history at decision time, ``promotion_eta`` and the reference point --
so a resumed run, which re-runs the optimiser from its seed, reproduces
every decision bit-identically.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.optim.base import CachingEvaluator, ObjectiveFn
from repro.optim.hypervolume import hypervolume_contributions
from repro.optim.space import Assignment, DesignSpace
from repro.perf.profiler import count, span

#: Tier-0 screen: a list of assignments -> an (n, d) matrix of
#: component-wise *lower bounds* on the objective vectors (minimisation
#: convention).  Soundness of the pruning rail rests on every entry
#: truly bounding the tier-1 objective from below.
ScreenFn = Callable[[List[Assignment]], Sequence[Sequence[float]]]


class MultiFidelityEvaluator(CachingEvaluator):
    """A :class:`CachingEvaluator` with a tier-0 screening front end.

    The inherited :meth:`evaluate` / :meth:`evaluate_batch` stay
    unscreened (warm-up and non-screening optimisers use them
    unchanged); screening optimisers submit proposal groups through
    :meth:`evaluate_screened`.  The budget still counts unique *tier-1*
    evaluations only -- screens and pruned points are free.

    Pruned points are remembered and reported as seen, so the candidate
    pool never re-proposes a point already proven dominated.
    """

    def __init__(self, space: DesignSpace, objective_fn: ObjectiveFn,
                 budget: int, *,
                 screen_fn: ScreenFn,
                 promotion_eta: float = 0.5,
                 reference: Optional[Sequence[float]] = None):
        if reference is None:
            raise ConfigError(
                "multi-fidelity evaluation needs a reference point: "
                "promotion scores are hypervolume contributions")
        if not 0.0 < promotion_eta <= 1.0:
            raise ConfigError("promotion_eta must be in (0, 1]")
        super().__init__(space, objective_fn, budget, reference=reference)
        self.screen_fn = screen_fn
        self.promotion_eta = promotion_eta
        self._pruned_keys: set = set()

    def seen_key(self, key: Tuple[object, ...]) -> bool:
        """True for evaluated *and* pruned points (never re-propose)."""
        return key in self._cache or key in self._pruned_keys

    def evaluate_screened(self, assignments: Sequence[Assignment]
                          ) -> List[Optional[np.ndarray]]:
        """Screen a proposal group at tier-0; evaluate only promotions.

        Returns one entry per input, in order: the tier-1 objective
        vector for cached or promoted-and-evaluated points, ``None``
        for pruned (or budget-skipped) ones.
        """
        keys = [self.space.key(a) for a in assignments]
        fresh_indices: List[int] = []
        pending = set()
        for i, key in enumerate(keys):
            if key in self._cache or key in self._pruned_keys \
                    or key in pending:
                continue
            pending.add(key)
            fresh_indices.append(i)

        if fresh_indices:
            fresh = [assignments[i] for i in fresh_indices]
            with span("fidelity.screen"):
                bounds = np.asarray(self.screen_fn(fresh), dtype=float)
            count("fidelity.screened", len(fresh))
            if bounds.shape != (len(fresh), self.reference.shape[0]):
                raise ConfigError(
                    f"screen function returned shape {bounds.shape}, "
                    f"expected ({len(fresh)}, {self.reference.shape[0]})")
            mask = self._promotion_mask(bounds)
            promoted = [a for a, m in zip(fresh, mask) if m]
            for key_index, keep in zip(fresh_indices, mask):
                if not keep:
                    self._pruned_keys.add(keys[key_index])
            count("fidelity.promoted", len(promoted))
            if promoted:
                with span("fidelity.tier1"):
                    super().evaluate_batch(promoted)
        return [self._cache.get(key) for key in keys]

    def _promotion_mask(self, bounds: np.ndarray) -> np.ndarray:
        """Successive-halving promotion decisions for one group.

        Top ``ceil(eta * n)`` bound vectors by hypervolume contribution
        against the observed front, unioned with the safety rail: every
        potential dominator, i.e. every point whose bound is
        component-wise ``<=`` some observed front point -- its true
        objectives might dominate that front point, and no lower-bound
        screen can prove otherwise, so it is never pruned.  Deterministic
        given the evaluator history -- stable argsort, no RNG -- which
        is what makes a recomputed resume exact.
        """
        size = bounds.shape[0]
        if not self.result.evaluations:
            return np.ones(size, dtype=bool)
        front = self.observed()[2]

        quota = min(size, max(1, int(np.ceil(
            self.promotion_eta * size))))
        clipped = np.minimum(bounds, self.reference[None, :] - 1e-12)
        scores = hypervolume_contributions(front, clipped, self.reference)
        order = np.argsort(-scores, kind="stable")
        mask = np.zeros(size, dtype=bool)
        mask[order[:quota]] = True

        # Safety rail: bound(p) <= front point f means p's true
        # objectives may dominate f -- never prune such a point.
        potential_dominator = np.any(
            np.all(bounds[:, None, :] <= front[None, :, :], axis=2),
            axis=1)
        rail = potential_dominator & ~mask
        count("fidelity.rail_promotions", int(np.count_nonzero(rail)))
        return mask | potential_dominator
