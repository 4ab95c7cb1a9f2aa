"""The SMS-EGO proposal's index-row pool and incremental history against
the frozen legacy proposal (:mod:`tests.optim.legacy_sms_ego`).

The pool must return the legacy pool's points in the same order, encode
to the same bits and leave the generator in the same state; the history
the evaluator keeps across proposals (``CachingEvaluator.observed``)
must equal the one re-read from scratch, front included, row for row,
for the proposal and the multi-fidelity screen alike.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.base import CachingEvaluator
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.fidelity import MultiFidelityEvaluator
from repro.optim.pareto import non_dominated_mask
from repro.optim.space import DesignSpace, Dimension
from tests.optim.legacy_sms_ego import (LegacySerialSmsEgo,
                                        legacy_candidate_pool)


def random_space(rng):
    """A space of 1-4 dimensions of 1-6 values: ints, strings or tuples."""
    dimensions = []
    for i in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, 7))
        kind = int(rng.integers(3))
        values = [k * 3 for k in range(size)] if kind == 0 else (
            [f"v{k}" for k in range(size)] if kind == 1
            else [(k, -k) for k in range(size)])
        dimensions.append(Dimension(f"d{i}", tuple(values)))
    return DesignSpace(dimensions)


def objective(point):
    """A deterministic two-objective function of any point."""
    digest = zlib.crc32(repr(sorted(point.items())).encode()) % 97
    return [digest / 97.0, 1.0 - digest / 97.0]


def assert_pools_match(optimizer, evaluator, seed, draws=3):
    """``draws`` consecutive pools from one generator equal the legacy
    pools drawn from a twin generator, and leave it in the same state."""
    space = evaluator.space
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        rows, keys = optimizer._candidate_pool(evaluator, rng)
        legacy = legacy_candidate_pool(optimizer.pool_size, evaluator, twin)
        assert keys == [space.key(point) for point in legacy]
        assert [space.from_key(key) for key in keys] == legacy
        encoded, expected = space.encode_indices(rows), space.encode_many(legacy)
        assert encoded.shape == expected.shape
        assert encoded.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


class TestPoolMatchesLegacyDraw:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_spaces_repeated_draws(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        pool_size = int(rng.integers(1, 40))
        evaluator = CachingEvaluator(space, objective, budget=10_000)
        assert_pools_match(SmsEgoBayesOpt(space, pool_size=pool_size),
                           evaluator, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_evaluated_points_are_filtered(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        points = list(space.all_points())
        evaluator = CachingEvaluator(space, objective, budget=10_000)
        for index in rng.permutation(len(points))[:len(points) // 2]:
            evaluator.evaluate(points[index])
        assert_pools_match(SmsEgoBayesOpt(space, pool_size=16), evaluator,
                           seed)

    def test_fidelity_pruned_keys_are_filtered(self):
        space = DesignSpace([Dimension("a", tuple(range(1, 9))),
                             Dimension("b", (10, 20, 30, 40))])

        def three(point):
            return [point["a"] / 10.0, point["b"] / 50.0,
                    point["a"] * point["b"] / 400.0]

        evaluator = MultiFidelityEvaluator(
            space, three, 32, screen_fn=lambda group: [three(p)
                                                       for p in group],
            promotion_eta=0.25, reference=[2.0, 2.0, 2.0])
        points = list(space.all_points())
        evaluator.evaluate(points[0])
        evaluator.evaluate_screened(points[8:16])
        assert evaluator._pruned_keys
        assert_pools_match(SmsEgoBayesOpt(space, pool_size=12), evaluator,
                           seed=4)

    @pytest.mark.parametrize("pool_size", [7, 40])
    def test_attempt_limit_runs_out(self, pool_size):
        """The space holds fewer unseen points than the pool wants, so
        every draw spends all 20 x pool_size attempts."""
        space = DesignSpace([Dimension("a", (1, 2, 3)),
                             Dimension("b", ("x", "y"))])
        evaluator = CachingEvaluator(space, objective, budget=10)
        evaluator.evaluate({"a": 1, "b": "x"})
        optimizer = SmsEgoBayesOpt(space, pool_size=pool_size)
        _, keys = optimizer._candidate_pool(evaluator,
                                            np.random.default_rng(0))
        assert len(keys) == space.size() - 1 < pool_size
        assert_pools_match(optimizer, evaluator, seed=1)

    def test_fully_seen_space_gives_an_empty_pool(self):
        space = DesignSpace([Dimension("a", (1, 2))])
        evaluator = CachingEvaluator(space, objective, budget=10)
        for point in space.all_points():
            evaluator.evaluate(point)
        rows, keys = SmsEgoBayesOpt(space, pool_size=5)._candidate_pool(
            evaluator, np.random.default_rng(0))
        assert keys == [] and rows.shape == (0, 1)
        assert_pools_match(SmsEgoBayesOpt(space, pool_size=5), evaluator,
                           seed=2)


def history_evaluator(objectives):
    """An evaluator whose i-th fresh point scores ``objectives[i]``."""
    space = DesignSpace([Dimension("i", tuple(range(len(objectives)))),
                         Dimension("pad", (0, 1))])
    evaluator = CachingEvaluator(
        space, lambda point: objectives[point["i"]], budget=len(objectives))
    return evaluator, [{"i": i, "pad": i % 2} for i in range(len(objectives))]


def reread_history(evaluator):
    """The history's arrays as the legacy proposal re-read them."""
    history = evaluator.result.evaluations
    x = evaluator.space.encode_many([e.assignment for e in history])
    objectives = np.vstack([e.objectives for e in history])
    return x, objectives, objectives[non_dominated_mask(objectives)]


def assert_history_matches(evaluator):
    for kept, full in zip(evaluator.observed(), reread_history(evaluator)):
        assert kept.shape == full.shape
        assert kept.tobytes() == full.tobytes()


class TestIncrementalHistory:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
               st.lists(st.integers(0, 3), min_size=m, max_size=m),
               min_size=1, max_size=30)),
           st.lists(st.integers(1, 6), min_size=1, max_size=30))
    def test_front_of_front_plus_batch_is_the_full_front(self, rows,
                                                          batches):
        """Small integer objectives make duplicate and tied rows common."""
        objectives = [[float(v) for v in row] for row in rows]
        evaluator, points = history_evaluator(objectives)
        done = 0
        for size in batches * len(points):
            if done >= len(points):
                break
            evaluator.evaluate_batch(points[done:done + size])
            done += size
            assert_history_matches(evaluator)

    def test_duplicates_and_ties_keep_history_order(self):
        objectives = [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0],
                      [0.5, 3.0], [2.0, 1.0], [0.5, 3.0], [1.0, 1.0]]
        evaluator, points = history_evaluator(objectives)
        for chunk in ([0, 1], [2], [3, 4, 5], [], [6, 7]):
            evaluator.evaluate_batch([points[i] for i in chunk])
            assert_history_matches(evaluator)
        assert evaluator.observed()[2].tolist() == [[0.5, 3.0], [0.5, 3.0],
                                                    [1.0, 1.0]]

    def test_state_follows_the_evaluator(self):
        """A new evaluator starts a new history, even on one optimiser."""
        space = DesignSpace([Dimension("x", tuple(range(12))),
                             Dimension("y", tuple(range(12)))])
        optimizer = SmsEgoBayesOpt(space, seed=3, num_initial=6,
                                   pool_size=32)
        first = optimizer.optimize(objective, budget=14)
        second = optimizer.optimize(objective, budget=14)
        assert ([e.assignment for e in first.evaluations]
                == [e.assignment for e in second.evaluations])


def three_objectives(point):
    return [point["x"] / 12.0 + 0.1 * (point["z"] == "b"),
            1.0 - point["y"] / 12.0, (point["x"] * point["y"]) % 7 / 7.0]


#: The screen's own promotion rule, which :func:`screened_run` wraps.
PROMOTION_MASK = MultiFidelityEvaluator._promotion_mask


def screened_run(seed, monkeypatch):
    """A q=4 run through the tier-0 screen: its history and every
    promotion decision, each as the screened group's bound bytes and
    its mask."""
    space = DesignSpace([Dimension("x", tuple(range(12))),
                         Dimension("y", tuple(range(12))),
                         Dimension("z", ("a", "b", "c"))])
    decisions = []

    def recorded_mask(evaluator, bounds):
        mask = PROMOTION_MASK(evaluator, bounds)
        decisions.append((bounds.tobytes(), mask.tolist()))
        return mask

    monkeypatch.setattr(MultiFidelityEvaluator, "_promotion_mask",
                        recorded_mask)
    result = SmsEgoBayesOpt(
        space, seed=seed, num_initial=6, pool_size=48,
        proposal_batch=4).optimize(
            three_objectives, budget=30, reference=[2.0, 2.0, 2.0],
            screen_fn=lambda group: [[v - 0.05 for v in three_objectives(p)]
                                     for p in group],
            promotion_eta=0.25)
    return result, decisions


class TestScreenedRunMatchesReread:
    @pytest.mark.parametrize("seed", range(4))
    def test_promotions_and_history_are_bit_identical(self, monkeypatch,
                                                      seed):
        """The proposal and the screen's promotion mask read the kept
        front; re-reading the whole history at every read instead
        changes no decision and no recorded bit."""
        result, decisions = screened_run(seed, monkeypatch)
        monkeypatch.setattr(CachingEvaluator, "observed", reread_history)
        legacy, legacy_decisions = screened_run(seed, monkeypatch)
        assert any(not all(mask) for _, mask in decisions)
        assert decisions == legacy_decisions
        assert ([e.assignment for e in result.evaluations]
                == [e.assignment for e in legacy.evaluations])
        assert (result.objective_matrix.tobytes()
                == legacy.objective_matrix.tobytes())


class TestFullRunMatchesLegacyLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_q1_history_is_bit_identical(self, seed):
        space = DesignSpace([Dimension("x", tuple(range(12))),
                             Dimension("y", tuple(range(12))),
                             Dimension("z", ("a", "b", "c"))])
        kwargs = dict(seed=seed, num_initial=6, pool_size=48)
        legacy = LegacySerialSmsEgo(space, **kwargs).optimize(
            objective, budget=30, reference=[2.0, 2.0])
        current = SmsEgoBayesOpt(space, **kwargs).optimize(
            objective, budget=30, reference=[2.0, 2.0])
        assert ([e.assignment for e in current.evaluations]
                == [e.assignment for e in legacy.evaluations])
        assert (current.objective_matrix.tobytes()
                == legacy.objective_matrix.tobytes())
