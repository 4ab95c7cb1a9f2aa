"""Multi-fidelity screening evaluator: promotion rule, safety rail,
stats accounting and the barren-round guard.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.fidelity import MultiFidelityEvaluator
from repro.optim.space import DesignSpace, Dimension
from repro.perf import Span, render_profile, span

REFERENCE = [2.0, 2.0, 2.0]


def make_space():
    return DesignSpace(dimensions=(
        Dimension("a", (1, 2, 3, 4, 5, 6, 7, 8)),
        Dimension("b", (10, 20, 30, 40)),
    ))


def objective(assignment):
    a, b = assignment["a"], assignment["b"]
    return [a / 10.0, b / 50.0, (a * b) / 400.0]


def exact_screen(assignments):
    """A screen whose 'bounds' are the exact objectives (tightest)."""
    return [objective(a) for a in assignments]


def loose_screen(assignments):
    """A valid screen at half the exact objectives (loose bounds)."""
    return [[v / 2.0 for v in objective(a)] for a in assignments]


def make_evaluator(screen=loose_screen, budget=32, eta=0.5):
    return MultiFidelityEvaluator(make_space(), objective, budget,
                                  screen_fn=screen, promotion_eta=eta,
                                  reference=REFERENCE)


class TestConstruction:
    def test_reference_is_required(self):
        with pytest.raises(ConfigError):
            MultiFidelityEvaluator(make_space(), objective, 8,
                                   screen_fn=loose_screen)

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_eta_must_be_in_unit_interval(self, eta):
        with pytest.raises(ConfigError):
            make_evaluator(eta=eta)

    def test_eta_of_one_is_allowed(self):
        make_evaluator(eta=1.0)


class TestPromotion:
    def test_first_group_is_promoted_wholesale(self):
        evaluator = make_evaluator()
        points = list(make_space().all_points())[:6]
        results = evaluator.evaluate_screened(points)
        assert all(r is not None for r in results)
        assert evaluator.evaluations_used == len(points)

    def test_dominated_points_are_pruned(self):
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(make_space().all_points())
        # Observe the best corner first; later groups containing points
        # it dominates (under an exact screen) must shed them.
        evaluator.evaluate(points[0])          # a=1, b=10: dominates all
        results = evaluator.evaluate_screened(points[8:16])
        pruned = [r for r in results if r is None]
        assert pruned, "exact-screen dominated points were not pruned"
        assert evaluator.evaluations_used < 1 + 8

    def test_rail_promotes_potential_dominators(self):
        evaluator = make_evaluator(screen=loose_screen, eta=0.25)
        points = list(make_space().all_points())
        # Observe the worst corner: every half-scaled bound sits below
        # it on every axis, so every screened point is a potential
        # dominator: none may be pruned, whatever the quota says.
        evaluator.evaluate(max(points, key=lambda p: objective(p)))
        with span("screen") as screen:
            results = evaluator.evaluate_screened(points[8:16])
        assert all(r is not None for r in results)
        assert screen.total("fidelity.rail_promotions") > 0

    def test_pruned_points_are_seen_and_not_reproposed(self):
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(make_space().all_points())
        evaluator.evaluate(points[0])
        results = evaluator.evaluate_screened(points[8:16])
        pruned = [p for p, r in zip(points[8:16], results) if r is None]
        assert pruned
        for point in pruned:
            assert evaluator.seen(point)
        # A pruned point re-submitted later stays pruned at zero cost.
        used = evaluator.evaluations_used
        again = evaluator.evaluate_screened(pruned)
        assert all(r is None for r in again)
        assert evaluator.evaluations_used == used

    def test_candidate_pool_skips_pruned_keys(self):
        space = make_space()
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(space.all_points())
        evaluator.evaluate(points[0])
        results = evaluator.evaluate_screened(points[8:16])
        pruned = {space.key(p) for p, r in zip(points[8:16], results)
                  if r is None}
        assert pruned
        assert all(evaluator.seen_key(key) for key in pruned)
        # The pool filters sample_rows' keys through seen_key; with
        # 20 draws per slot it finds every point neither evaluated nor
        # pruned, and nothing else.
        evaluated = {space.key(e.assignment)
                     for e in evaluator.result.evaluations}
        _, pool_keys = SmsEgoBayesOpt(
            space, pool_size=space.size())._candidate_pool(
                evaluator, np.random.default_rng(0))
        assert set(pool_keys) == (
            {space.key(p) for p in points} - evaluated - pruned)

    def test_pruned_points_never_reach_the_gp_history(self):
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(make_space().all_points())
        evaluator.evaluate(points[0])
        results = evaluator.evaluate_screened(points[8:16])
        promoted = sum(1 for r in results if r is not None)
        assert len(evaluator.result.evaluations) == 1 + promoted

    def test_screen_shape_mismatch_raises(self):
        evaluator = make_evaluator(
            screen=lambda assignments: [[0.0, 0.0]] * len(assignments))
        with pytest.raises(ConfigError):
            evaluator.evaluate_screened(list(make_space().all_points())[:3])

    def test_budget_counts_tier1_only(self):
        evaluator = make_evaluator(screen=exact_screen, eta=0.25, budget=4)
        points = list(make_space().all_points())
        evaluator.evaluate(points[0])
        evaluator.evaluate_screened(points[8:16])
        assert evaluator.evaluations_used <= 4


class TestStats:
    def test_counters_accumulate(self):
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(make_space().all_points())
        evaluator.evaluate(points[0])
        with span("phase2") as phase:
            evaluator.evaluate_screened(points[8:16])
        screened = phase.total("fidelity.screened")
        promoted = phase.total("fidelity.promoted")
        assert len(phase.find("fidelity.screen")) == 1
        assert screened == 8
        assert 0 < promoted < screened  # some pruned, some promoted
        assert len(phase.find("fidelity.tier1")) == 1
        assert evaluator.evaluations_used == 1 + promoted

    def test_est_sim_seconds_saved_prices_pruned_points(self):
        # 4 pruned points at the measured 0.5 s per tier-1 evaluation.
        phase = Span("phase2", counts={"fidelity.screened": 10,
                                       "fidelity.promoted": 6},
                     children=[Span("fidelity.screen"),
                               Span("fidelity.tier1", wall_s=3.0)])
        text = render_profile(Span("run", children=[phase]))
        assert "4 simulator evals avoided (~2.00 s saved)" in text

    def test_snapshot_and_merge_round_trip(self):
        # Each span holds only its own group; their parent sums both.
        evaluator = make_evaluator(screen=exact_screen, eta=0.25)
        points = list(make_space().all_points())
        evaluator.evaluate(points[0])
        with span("run") as run:
            with span("first") as first:
                evaluator.evaluate_screened(points[8:16])
            with span("second") as second:
                evaluator.evaluate_screened(points[16:19])
        assert first.total("fidelity.screened") == 8
        assert second.total("fidelity.screened") == 3
        assert run.total("fidelity.screened") == 11


class _PruneEverything(MultiFidelityEvaluator):
    """Degenerate evaluator: no screened point is ever promoted."""

    def _promotion_mask(self, bounds):
        return np.zeros(bounds.shape[0], dtype=bool)


class TestBarrenGuard:
    def test_zero_promotion_rounds_end_the_run(self):
        """Groups that promote nothing consume no budget; the optimiser
        must bail out after ``MAX_BARREN_ROUNDS`` of them instead of
        proposing forever."""
        space = make_space()
        evaluator = _PruneEverything(
            space, objective, budget=30, screen_fn=loose_screen,
            promotion_eta=0.5, reference=REFERENCE)
        optimizer = SmsEgoBayesOpt(space, num_initial=4, pool_size=16,
                                   proposal_batch=4, seed=0)
        optimizer.run(evaluator, np.random.default_rng(0))
        assert len(evaluator.result.evaluations) == 4
        assert not evaluator.exhausted

    def test_pervasive_pruning_still_terminates(self):
        """Even when the quota is the only promotion channel, the run
        walks the whole space and stops at the empty candidate pool."""
        def pessimal_screen(assignments):
            return [[10.0, 10.0, 10.0] for _ in assignments]

        space = make_space()
        evaluator = MultiFidelityEvaluator(
            space, objective, budget=30, screen_fn=pessimal_screen,
            promotion_eta=0.5, reference=[20.0, 20.0, 20.0])
        optimizer = SmsEgoBayesOpt(space, num_initial=4, pool_size=16,
                                   proposal_batch=4, seed=0)
        optimizer.run(evaluator, np.random.default_rng(0))
        assert not evaluator.exhausted
        assert len(evaluator.result.evaluations) >= 4
