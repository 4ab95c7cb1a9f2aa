"""Unit and property tests for Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.pareto import (
    crowding_distance,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
)

points_strategy = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 4)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([0, 0], [1, 1])

    def test_partial_improvement_dominates(self):
        assert dominates([0, 1], [1, 1])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_incomparable(self):
        assert not dominates([0, 2], [2, 0])
        assert not dominates([2, 0], [0, 2])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])


class TestNonDominatedMask:
    def test_simple_front(self):
        points = np.array([[0, 2], [1, 1], [2, 0], [2, 2]])
        mask = non_dominated_mask(points)
        assert list(mask) == [True, True, True, False]

    def test_duplicates_all_kept(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = non_dominated_mask(points)
        assert list(mask) == [True, True, False]

    def test_single_point(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).all()

    def test_empty(self):
        assert non_dominated_mask(np.zeros((0, 2))).shape == (0,)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            non_dominated_mask(np.array([1.0, 2.0]))

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_front_points_mutually_nondominated(self, points):
        front = points[non_dominated_mask(points)]
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                assert not dominates(front[i], front[j])

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_every_dominated_point_has_dominator_on_front(self, points):
        mask = non_dominated_mask(points)
        front = points[mask]
        for i in np.flatnonzero(~mask):
            assert any(dominates(f, points[i]) for f in front)

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_at_least_one_point_on_front(self, points):
        assert non_dominated_mask(points).any()

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy, seed=st.integers(0, 1000))
    def test_mask_follows_input_order(self, points, seed):
        order = np.random.default_rng(seed).permutation(points.shape[0])
        np.testing.assert_array_equal(non_dominated_mask(points[order]),
                                      non_dominated_mask(points)[order])


class TestNonDominatedSort:
    def test_layered_fronts(self):
        points = np.array([[0, 0], [1, 1], [2, 2]])
        fronts = non_dominated_sort(points)
        assert fronts == [[0], [1], [2]]

    def test_fronts_partition_points(self):
        points = np.array([[0, 2], [2, 0], [1, 1], [3, 3], [2, 2]])
        fronts = non_dominated_sort(points)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(5))

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_each_front_mutually_nondominated(self, points):
        for front in non_dominated_sort(points):
            for i in front:
                assert not any(dominates(points[j], points[i])
                               for j in front)

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_later_fronts_dominated_by_the_one_before(self, points):
        fronts = non_dominated_sort(points)
        for earlier, later in zip(fronts, fronts[1:]):
            for i in later:
                assert any(dominates(points[j], points[i]) for j in earlier)

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_first_front_matches_mask(self, points):
        fronts = non_dominated_sort(points)
        mask = non_dominated_mask(points)
        assert sorted(fronts[0]) == list(np.flatnonzero(mask))


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        points = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(points)
        assert np.isinf(distance[0])
        assert np.isinf(distance[-1])
        assert np.isfinite(distance[1:3]).all()

    def test_empty(self):
        assert crowding_distance(np.zeros((0, 2))).shape == (0,)

    def test_uniform_spacing_equal_interior_distance(self):
        points = np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0],
                           [3.0, 1.0], [4.0, 0.0]])
        distance = crowding_distance(points)
        assert distance[1] == pytest.approx(distance[2])
        assert distance[2] == pytest.approx(distance[3])
