"""Batched evaluation and final-hypervolume properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim.base import CachingEvaluator, OptimizationResult
from repro.optim.hypervolume import hypervolume
from repro.optim.space import DesignSpace, Dimension


def make_space():
    return DesignSpace(dimensions=(
        Dimension("a", (1, 2, 3, 4, 5, 6, 7, 8)),
        Dimension("b", (10, 20, 30, 40)),
    ))


def objective(assignment):
    a, b = assignment["a"], assignment["b"]
    return [a / 10.0, b / 50.0, (a * b) / 400.0]


class TestEvaluateBatch:
    def test_batch_matches_serial_history(self):
        space = make_space()
        points = list(space.all_points())[:12]
        serial = CachingEvaluator(space, objective, budget=20,
                                  reference=[2.0, 2.0, 2.0])
        for point in points:
            serial.evaluate(point)
        batched = CachingEvaluator(space, objective, budget=20,
                                   reference=[2.0, 2.0, 2.0])
        batched.evaluate_batch(points)
        assert len(batched.result.evaluations) == \
            len(serial.result.evaluations)
        for a, b in zip(batched.result.evaluations,
                        serial.result.evaluations):
            assert a.assignment == b.assignment
            np.testing.assert_array_equal(a.objectives, b.objectives)

    def test_batch_returns_vectors_in_input_order(self):
        space = make_space()
        points = list(space.all_points())[:6]
        evaluator = CachingEvaluator(space, objective, budget=10)
        results = evaluator.evaluate_batch(points)
        for point, vector in zip(points, results):
            np.testing.assert_array_equal(vector, objective(point))

    def test_batch_deduplicates_within_batch(self):
        space = make_space()
        point = next(iter(space.all_points()))
        calls = []

        def counting(assignment):
            calls.append(assignment)
            return objective(assignment)

        evaluator = CachingEvaluator(space, counting, budget=10)
        results = evaluator.evaluate_batch([point, point, point])
        assert len(calls) == 1
        assert evaluator.evaluations_used == 1
        for vector in results:
            np.testing.assert_array_equal(vector, objective(point))

    def test_budget_overflow_returns_none(self):
        space = make_space()
        points = list(space.all_points())[:5]
        evaluator = CachingEvaluator(space, objective, budget=3)
        results = evaluator.evaluate_batch(points)
        assert sum(1 for r in results if r is not None) == 3
        assert results[3] is None and results[4] is None
        assert evaluator.exhausted

    def test_cached_points_free_even_when_exhausted(self):
        space = make_space()
        points = list(space.all_points())[:3]
        evaluator = CachingEvaluator(space, objective, budget=3)
        evaluator.evaluate_batch(points)
        again = evaluator.evaluate_batch(points)
        assert all(vector is not None for vector in again)


class TestFrozenObjectiveVectors:
    """Recorded vectors are shared by cache, history and callers --
    they must be immutable so no consumer can corrupt the history."""

    def test_evaluate_returns_readonly_vector(self):
        space = make_space()
        point = next(iter(space.all_points()))
        evaluator = CachingEvaluator(space, objective, budget=5)
        vector = evaluator.evaluate(point)
        assert vector.flags.writeable is False
        with pytest.raises(ValueError):
            vector[0] = 99.0

    def test_batch_returns_readonly_vectors(self):
        space = make_space()
        points = list(space.all_points())[:4]
        evaluator = CachingEvaluator(space, objective, budget=10)
        for vector in evaluator.evaluate_batch(points):
            assert vector.flags.writeable is False
            with pytest.raises(ValueError):
                vector += 1.0

    def test_history_entries_readonly(self):
        space = make_space()
        points = list(space.all_points())[:4]
        evaluator = CachingEvaluator(space, objective, budget=10,
                                     reference=[2.0, 2.0, 2.0])
        evaluator.evaluate_batch(points)
        for evaluation in evaluator.result.evaluations:
            with pytest.raises(ValueError):
                evaluation.objectives[:] = 0.0

    def test_callers_array_is_not_frozen(self):
        """Freezing applies to a private copy, never to an array object
        the objective function keeps a reference to."""
        space = make_space()
        point = next(iter(space.all_points()))
        owned = np.asarray(objective(point), dtype=float)
        evaluator = CachingEvaluator(space, lambda a: owned, budget=5)
        evaluator.evaluate(point)
        assert owned.flags.writeable is True
        owned[0] = -1.0  # must not touch the recorded history
        np.testing.assert_array_equal(
            evaluator.result.evaluations[0].objectives, objective(point))


class TestBudgetExhaustionMidBatch:
    """Mixed cached/uncached batch with the budget running out."""

    def test_cached_vectors_skipped_nones_and_observer_order(self):
        space = make_space()
        points = list(space.all_points())[:6]
        calls = []

        def counting(assignment):
            calls.append(dict(assignment))
            return objective(assignment)

        evaluator = CachingEvaluator(space, counting, budget=4)
        evaluator.evaluate(points[0])
        evaluator.evaluate(points[1])

        # cached, new, new, cached, new, new -- budget allows 2 more.
        batch = [points[0], points[2], points[3],
                 points[1], points[4], points[5]]
        results = evaluator.evaluate_batch(batch)

        np.testing.assert_array_equal(results[0], objective(points[0]))
        np.testing.assert_array_equal(results[1], objective(points[2]))
        np.testing.assert_array_equal(results[2], objective(points[3]))
        np.testing.assert_array_equal(results[3], objective(points[1]))
        assert results[4] is None and results[5] is None
        assert evaluator.exhausted
        assert evaluator.evaluations_used == 4
        # The history holds every fresh evaluation in input order, and
        # the objective function saw them in that order: the two
        # pre-batch points, then the two in-batch points that fit.
        expected = [points[0], points[1], points[2], points[3]]
        assert [e.assignment for e in evaluator.result.evaluations] == \
            expected
        assert calls == expected

    def test_history_matches_observer_after_mid_batch_exhaustion(self):
        """A journal kept inside the objective function, as Phase 2
        keeps one, matches the history after the budget runs out."""
        space = make_space()
        points = list(space.all_points())[:5]
        journal = []

        def journalled(assignment):
            vector = objective(assignment)
            journal.append((dict(assignment), vector))
            return vector

        evaluator = CachingEvaluator(space, journalled, budget=3,
                                     reference=[2.0, 2.0, 2.0])
        evaluator.evaluate_batch(points)
        assert len(evaluator.result.evaluations) == 3
        assert len(journal) == 3
        for (seen_a, seen_o), evaluation in zip(
                journal, evaluator.result.evaluations):
            assert seen_a == evaluation.assignment
            np.testing.assert_array_equal(seen_o, evaluation.objectives)


class TestFinalHypervolume:
    """The front's volume, computed from the history on request."""

    @staticmethod
    def evaluate_all(objectives, reference):
        n = objectives.shape[0]
        space = DesignSpace(dimensions=(Dimension("i", tuple(range(n))),))
        evaluator = CachingEvaluator(
            space, lambda a: objectives[a["i"]], budget=n,
            reference=reference)
        for i in range(n):
            evaluator.evaluate({"i": i})
        return evaluator.result

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           d=st.integers(2, 3))
    def test_matches_full_recompute(self, seed, n, d):
        rng = np.random.default_rng(seed)
        objectives = rng.random((n, d)) * 1.4  # some points beyond ref
        reference = np.ones(d)
        result = self.evaluate_all(objectives, reference)
        assert result.final_hypervolume(reference) == pytest.approx(
            hypervolume(objectives, reference), rel=1e-12, abs=1e-12)

    def test_never_shrinks_as_evaluations_accrue(self):
        objectives = np.random.default_rng(3).random((30, 3))
        result = self.evaluate_all(objectives, [1.0, 1.0, 1.0])
        volumes = [
            OptimizationResult(result.evaluations[:k + 1])
            .final_hypervolume([1.0, 1.0, 1.0]) for k in range(30)]
        # A dominated point leaves the volume unchanged but can reorder
        # the sweep's sums, moving the last bit.
        assert all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))
        assert volumes[-1] == result.final_hypervolume([1.0, 1.0, 1.0])

    def test_out_of_reference_point_adds_nothing(self):
        objectives = np.array([[0.5, 0.5], [2.0, 0.1]])
        result = self.evaluate_all(objectives, [1.0, 1.0])
        assert result.final_hypervolume([1.0, 1.0]) == pytest.approx(0.25)
