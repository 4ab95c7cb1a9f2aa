"""Multi-objective Bayesian optimisation with SMS-EGO acquisition.

This is the optimiser AutoPilot's Phase 2 uses (Section III-B): one
Gaussian process per objective (SE kernel), and the S-Metric-Selection
EGO acquisition (Ponweiser et al., PPSN 2008), which scores a candidate
by the *hypervolume contribution* of its lower-confidence-bound estimate
to the current Pareto front, penalising candidates whose LCB is
(epsilon-)dominated.  Candidates are drawn from a random pool of unseen
design points each iteration -- exact maximisation over a categorical
product space is neither possible nor needed.

Batched acquisition: with ``proposal_batch`` (q) above 1, each GP fit
proposes q candidates instead of one, selected greedily with a
kriging-believer-style inner loop -- after each pick, the winner's LCB
is folded into a *virtual front* so the next pick is penalised for
overlapping hypervolume -- and the whole group is submitted through
``CachingEvaluator.evaluate_batch``, which records it in pick order.
q = 1 reduces exactly to the serial one-point-per-fit behaviour (same
pool draws, same single argmax, same recorded history).

Resume semantics: the whole optimiser is a deterministic function of its
seed and the observed objective values.  Each proposal group reads the
full evaluation history (GP fits) and the set of seen points (pool
filtering), so a checkpointed run resumes by re-running the optimiser
from its seed -- never by pre-loading the evaluator cache, which would
let "future" observations divert earlier proposals.  Because the q
picks within a group depend only on that frozen history, the rerun
reconstructs the exact same q-groups bit-identically.

No proposal step runs once per old history point or builds an assignment
per pool candidate: the evaluator keeps the history encoded as it grows
(:meth:`CachingEvaluator.observed`), and the pool is drawn as value-index
rows, so only the q picks become assignments.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.optim.base import CachingEvaluator, Optimizer
from repro.optim.gp import MultiObjectiveGP
from repro.optim.hypervolume import hypervolume_contributions
from repro.optim.pareto import non_dominated_mask
from repro.optim.space import Assignment, DesignSpace
from repro.perf.profiler import count

#: Absolute floor on the per-objective observed span when deriving the
#: internal hypervolume reference point.  With a purely relative floor,
#: a degenerate objective (every observation ties, span ~ 0) collapses
#: the margin to ~1e-10, and the ``reference - 1e-12`` clip in
#: :meth:`SmsEgoBayesOpt._sms_ego_scores` lands essentially on top of
#: ``worst`` -- every candidate is then treated as gaining no volume on
#: that axis and penalised.  An absolute epsilon keeps the margin well
#: clear of the clip in the degenerate case.
SPAN_EPSILON = 1e-6


class SmsEgoBayesOpt(Optimizer):
    """SMS-EGO multi-objective Bayesian optimiser.

    Args:
        space: The categorical design space.
        seed: RNG seed.
        num_initial: Random points before model-based selection starts.
        pool_size: Unseen candidates scored per iteration.
        kappa: LCB exploration weight (mu - kappa * sigma).
        gain: SMS-EGO epsilon-dominance penalty steepness.
        reference_margin: Fractional margin used to derive the internal
            hypervolume reference point from observed objective ranges.
        proposal_batch: Candidates proposed per GP fit (q).  The default
            1 is the exact serial behaviour; larger values select q
            points greedily with virtual-front penalisation and submit
            them as one evaluation group, amortising the GP fit over q
            evaluations.
    """

    name = "bayesopt"

    #: Consecutive screened proposal groups allowed to promote nothing
    #: before the run stops early.  With multi-fidelity screening a
    #: group can be pruned wholesale (no budget consumed); if the pool
    #: keeps producing only provably-dominated candidates the loop
    #: would otherwise never exhaust the budget.
    MAX_BARREN_ROUNDS = 10

    def __init__(self, space: DesignSpace, seed: int = 0,
                 num_initial: int = 12, pool_size: int = 256,
                 kappa: float = 1.0, gain: float = 1.0,
                 reference_margin: float = 0.1,
                 proposal_batch: int = 1):
        super().__init__(space, seed)
        if num_initial < 2:
            raise ConfigError("num_initial must be at least 2")
        if pool_size < 1:
            raise ConfigError("pool_size must be positive")
        if proposal_batch < 1:
            raise ConfigError("proposal_batch must be at least 1")
        self.num_initial = num_initial
        self.pool_size = pool_size
        self.kappa = kappa
        self.gain = gain
        self.reference_margin = reference_margin
        self.proposal_batch = proposal_batch

    # ------------------------------------------------------------------
    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        self._initial_sampling(evaluator, rng)
        # Only a multi-fidelity evaluator screens; testing the capability
        # keeps :mod:`repro.optim.fidelity` unloaded on exact runs.
        screened = hasattr(evaluator, "evaluate_screened")
        barren_rounds = 0
        while not evaluator.exhausted:
            batch = self._propose(evaluator, rng)
            if not batch:
                break
            if screened:
                used_before = evaluator.evaluations_used
                evaluator.evaluate_screened(batch)
                if evaluator.evaluations_used == used_before:
                    barren_rounds += 1
                    if barren_rounds >= self.MAX_BARREN_ROUNDS:
                        break
                else:
                    barren_rounds = 0
            else:
                # Every proposal is unseen and within the budget, so a
                # group of one records exactly what ``evaluate`` would.
                evaluator.evaluate_batch(batch)

    # ------------------------------------------------------------------
    def _initial_sampling(self, evaluator: CachingEvaluator,
                          rng: np.random.Generator) -> None:
        """Queue the random warm-up points, then evaluate them as one group.

        Points are drawn in vectorised blocks sized to the still-needed
        count (capped at the remaining consecutive-miss budget, so even
        the near-exhausted-space break fires after the exact same draws
        as the seed's one-point-at-a-time loop).
        """
        target = min(self.num_initial, evaluator.budget,
                     evaluator.space.size())
        miss_limit = 100 * target
        misses = 0
        queued: List[Assignment] = []
        queued_keys = set()
        while (evaluator.evaluations_used + len(queued) < target
               and misses <= miss_limit):
            needed = target - evaluator.evaluations_used - len(queued)
            block = min(needed, miss_limit + 1 - misses)
            points, keys = evaluator.space.sample_block(rng, block)
            for point, key in zip(points, keys):
                if key in queued_keys or evaluator.seen_key(key):
                    misses += 1
                    if misses > miss_limit:
                        break
                    continue
                misses = 0
                queued_keys.add(key)
                queued.append(point)
        if queued:
            evaluator.evaluate_batch(queued)

    def _candidate_pool(self, evaluator: CachingEvaluator,
                        rng: np.random.Generator
                        ) -> Tuple[np.ndarray, List[Tuple[object, ...]]]:
        """Up to ``pool_size`` unseen points: index rows plus keys.

        Each block is sized to the still-needed count and capped at the
        remaining attempt budget, which reproduces the seed's
        draw-by-draw loop exactly: a block only fills the pool on its
        final draw, so no draw ever happens that the scalar loop would
        have skipped.
        """
        blocks: List[np.ndarray] = []
        keys: List[Tuple[object, ...]] = []
        seen_keys = set()
        attempts = 0
        attempt_limit = 20 * self.pool_size
        while len(keys) < self.pool_size and attempts < attempt_limit:
            block = min(self.pool_size - len(keys), attempt_limit - attempts)
            rows, block_keys = evaluator.space.sample_rows(rng, block)
            attempts += block
            kept = []
            for i, key in enumerate(block_keys):
                if key in seen_keys or evaluator.seen_key(key):
                    continue
                seen_keys.add(key)
                kept.append(i)
                keys.append(key)
            blocks.append(rows[kept])
        return np.concatenate(blocks), keys

    def _propose(self, evaluator: CachingEvaluator,
                 rng: np.random.Generator) -> List[Assignment]:
        """Fit the GP and greedily select up to q pool candidates.

        The first pick is the plain SMS-EGO argmax.  Each further pick
        re-scores the pool against a *virtual front* -- the observed
        front plus the LCB estimates of the picks so far (the
        kriging-believer trick) -- so a pick promising the same region
        of objective space as an earlier one is penalised for the
        overlapping volume.  The group size is clamped to the remaining
        budget, so a group never spills into ``evaluate_batch``'s
        budget-skip path.
        """
        rows, keys = self._candidate_pool(evaluator, rng)
        if not keys:
            return []

        x_train, objectives, front = evaluator.observed()
        x_pool = evaluator.space.encode_indices(rows)
        gp = MultiObjectiveGP().fit(x_train, objectives)
        means, stds = gp.predict(x_pool)

        lcb = means - self.kappa * stds
        reference = self._reference_point(objectives)

        budget_left = evaluator.budget - evaluator.evaluations_used
        group_size = min(self.proposal_batch, len(keys), budget_left)
        picks: List[int] = []
        virtual_front = front
        scores = self._sms_ego_scores(lcb, virtual_front, reference)
        while True:
            picks.append(int(np.argmax(scores)))
            if len(picks) >= group_size:
                break
            believed = np.vstack([virtual_front, lcb[picks[-1]][None, :]])
            virtual_front = believed[non_dominated_mask(believed)]
            scores = self._sms_ego_scores(lcb, virtual_front, reference)
            # Penalties are finite, so already-picked candidates must be
            # masked out explicitly or the argmax could repeat them.
            scores[np.asarray(picks)] = -np.inf
        count("proposal.groups")
        count("proposal.points", len(picks))
        return [evaluator.space.from_key(keys[i]) for i in picks]

    def _reference_point(self, objectives: np.ndarray) -> np.ndarray:
        worst = objectives.max(axis=0)
        best = objectives.min(axis=0)
        span = np.maximum(worst - best, SPAN_EPSILON)
        return worst + self.reference_margin * span

    def _sms_ego_scores(self, lcb: np.ndarray, front: np.ndarray,
                        reference: np.ndarray) -> np.ndarray:
        """SMS-EGO scores for the whole pool in one batched pass.

        A candidate scores its hypervolume contribution to the front
        (computed only for candidates the vectorised dominance screen
        shows can actually gain volume), or a negative epsilon-dominance
        penalty growing with how deeply the closest front point
        dominates it.
        """
        clipped = np.minimum(lcb, reference[None, :] - 1e-12)
        scores = hypervolume_contributions(front, clipped, reference)
        needs_penalty = np.flatnonzero(scores <= 0)
        if needs_penalty.size:
            excess = lcb[needs_penalty, None, :] - front[None, :, :]
            dominated_by = np.all(excess >= 0, axis=2)
            depth = np.where(dominated_by, excess.sum(axis=2),
                             np.inf).min(axis=1)
            penalty = np.where(np.isfinite(depth),
                               -self.gain * (1.0 + depth), 0.0)
            scores[needs_penalty] = penalty
        return scores
