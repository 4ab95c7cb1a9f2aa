"""Unit and property tests for hypervolume computation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.hypervolume import (
    _hypervolume_3d,
    _hypervolume_recursive,
    _nondominated_boxes,
    hypervolume,
    hypervolume_contributions,
)
from repro.optim.pareto import non_dominated_mask

unit_points = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 20), st.integers(2, 4)),
    elements=st.floats(0.0, 0.99, allow_nan=False),
)


class TestExactValues:
    def test_1d(self):
        assert hypervolume(np.array([[0.3], [0.7]]), [1.0]) == pytest.approx(0.7)

    def test_single_2d_point(self):
        assert hypervolume(np.array([[0.2, 0.4]]), [1.0, 1.0]) == \
            pytest.approx(0.8 * 0.6)

    def test_two_2d_points_union(self):
        points = np.array([[0.0, 0.5], [0.5, 0.0]])
        # Union of two rectangles minus the overlap: 0.5 + 0.5 - 0.25.
        assert hypervolume(points, [1.0, 1.0]) == pytest.approx(0.75)

    def test_3d_union(self):
        points = np.array([[0, 0, 0.5], [0.5, 0.5, 0]])
        assert hypervolume(points, [1, 1, 1]) == pytest.approx(0.625)

    def test_4d_single_point(self):
        point = np.array([[0.5, 0.5, 0.5, 0.5]])
        assert hypervolume(point, [1, 1, 1, 1]) == pytest.approx(0.5 ** 4)

    def test_point_at_reference_ignored(self):
        points = np.array([[1.0, 1.0], [0.5, 0.5]])
        assert hypervolume(points, [1.0, 1.0]) == pytest.approx(0.25)

    def test_empty_set_zero(self):
        assert hypervolume(np.zeros((0, 2)), [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[0.5, 0.5]]), [1.0, 1.0, 1.0])

    def test_non_2d_points_raise(self):
        with pytest.raises(ValueError, match="2-D"):
            hypervolume(np.array([0.5, 0.5]), [1.0, 1.0])


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_bounded_by_enclosing_box(self, points):
        d = points.shape[1]
        volume = hypervolume(points, [1.0] * d)
        assert 0.0 < volume <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_adding_dominated_point_changes_nothing(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        base = hypervolume(points, reference)
        dominated = np.minimum(points[0] + 0.005, 0.999)[None, :]
        extended = hypervolume(np.vstack([points, dominated]), reference)
        assert extended == pytest.approx(base, rel=1e-9, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(points=unit_points)
    def test_monotone_under_additional_points(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        base = hypervolume(points[:-1], reference) if points.shape[0] > 1 \
            else 0.0
        extended = hypervolume(points, reference)
        assert extended >= base - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(points=unit_points)
    def test_at_least_best_single_point(self, points):
        d = points.shape[1]
        reference = np.ones(d)
        volume = hypervolume(points, reference)
        best_single = max(float(np.prod(reference - p)) for p in points)
        assert volume >= best_single - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(points=unit_points)
    def test_permutation_invariant(self, points):
        d = points.shape[1]
        reference = [1.0] * d
        shuffled = points[np.random.default_rng(0).permutation(
            points.shape[0])]
        assert hypervolume(points, reference) == pytest.approx(
            hypervolume(shuffled, reference))


class TestSweep3d:
    """The incremental-staircase 3-D sweep against the recursive slicer."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           scale=st.floats(0.5, 2.0))
    def test_matches_recursive_slicing(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        points = rng.random((n, 3)) * scale
        reference = np.array([1.2, 1.2, 1.2])
        fast = _hypervolume_3d(points, reference)
        kept = points[np.all(points < reference, axis=1)]
        slow = 0.0
        if kept.shape[0]:
            slow = _hypervolume_recursive(kept[non_dominated_mask(kept)],
                                          reference)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_tolerates_duplicates_and_boundary_points(self):
        points = np.array([
            [0.5, 0.5, 0.5],
            [0.5, 0.5, 0.5],   # duplicate
            [1.0, 0.1, 0.1],   # at the reference in x
            [0.2, 0.8, 0.5],
        ])
        reference = np.array([1.0, 1.0, 1.0])
        expected = hypervolume(points, reference)
        assert _hypervolume_3d(points, reference) == pytest.approx(expected)

    def test_all_points_outside_reference(self):
        points = np.array([[2.0, 2.0, 2.0], [1.5, 0.1, 0.1]])
        assert _hypervolume_3d(points, np.array([1.0, 1.0, 1.0])) == 0.0


def exact_hypervolume(points, reference):
    """Hypervolume in rational arithmetic by inclusion-exclusion.

    Exponential in the point count; for a handful of points only.
    """
    ref = [Fraction(r) for r in reference]
    boxes = [[Fraction(v) for v in p] for p in points
             if all(v < r for v, r in zip(p, reference))]
    total = Fraction(0)
    for size in range(1, len(boxes) + 1):
        for subset in itertools.combinations(boxes, size):
            volume = Fraction(1)
            for k, r in enumerate(ref):
                volume *= r - max(p[k] for p in subset)
            total += (-1) ** (size + 1) * volume
    return total


def grid_instance(seed):
    """Integer points and candidates in 0..8 with reference 9.

    Every volume is an integer below 2**53, so every float operation on
    it is exact.  The set has duplicates and shared coordinates, and
    some candidates lie on the reference face.
    """
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 9, size=(30, 3)).astype(float)
    points = np.vstack([points, points[:4], [[2, 5, 7], [2, 5, 3],
                                             [2, 1, 7], [6, 5, 7]]])
    candidates = rng.integers(0, 10, size=(64, 3)).astype(float)
    candidates[:6, 2] = 9.0
    candidates[6:10] = points[10:14]
    return points, candidates, np.full(3, 9.0)


class TestContributions:
    """Batched exclusive contributions against the naive recompute."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 40),
           m=st.integers(1, 64), d=st.integers(2, 3))
    def test_matches_naive_recompute(self, seed, n, m, d):
        rng = np.random.default_rng(seed)
        points = rng.random((n, d)) if n else np.zeros((0, d))
        candidates = rng.random((m, d)) * 1.3
        # A different bound per axis, so a swapped axis cannot pass.
        reference = 1.0 + 0.3 * rng.random(d)
        fast = hypervolume_contributions(points, candidates, reference)
        base = hypervolume(points, reference) if n else 0.0
        for i in range(m):
            extended = np.vstack([points, candidates[i][None, :]])
            naive = max(0.0, hypervolume(extended, reference) - base)
            assert fast[i] == pytest.approx(naive, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_integer_grid(self, seed):
        points, candidates, reference = grid_instance(seed)
        fast = hypervolume_contributions(points, candidates, reference)
        base = hypervolume(points, reference)
        naive = [hypervolume(np.vstack([points, c[None, :]]), reference)
                 - base for c in candidates]
        assert fast.tolist() == naive
        assert fast[:6].tolist() == [0.0] * 6   # on the reference face
        assert fast[6:10].tolist() == [0.0] * 4  # duplicates of points

    @pytest.mark.parametrize("candidate", [
        (0.5, float(np.nextafter(0.5, 0.0)), 0.9),
        (0.5 - 1e-15, 0.6, 0.55),
    ])
    def test_tiny_contributions_keep_full_precision(self, candidate):
        # Both contributions are ~1e-17 against boxes of ~0.1: a
        # box-minus-hypervolume subtraction cancels them away (to 0.0,
        # or 11% high); the summed box overlaps do not.
        front = np.array([[0.5, 0.5, 0.5], [0.3, 0.7, 0.6]])
        reference = [1.1, 1.1, 1.1]
        exact = (exact_hypervolume(np.vstack([front, candidate]), reference)
                 - exact_hypervolume(front, reference))
        out = hypervolume_contributions(front, np.array([candidate]),
                                        reference)
        assert out[0] > 0.0
        assert out[0] == pytest.approx(float(exact), rel=1e-12)

    def test_dominated_candidates_screened_to_zero(self):
        points = np.array([[0.1, 0.1, 0.1]])
        candidates = np.array([[0.5, 0.5, 0.5], [0.05, 0.05, 0.05]])
        out = hypervolume_contributions(points, candidates, [1.0, 1.0, 1.0])
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_candidate_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="match the reference"):
            hypervolume_contributions(np.array([[0.5, 0.5]]),
                                      np.array([[0.1, 0.1, 0.1]]),
                                      [1.0, 1.0])

    def test_empty_front_gives_box_volume(self):
        out = hypervolume_contributions(
            np.zeros((0, 2)), np.array([[0.5, 0.5]]), [1.0, 1.0])
        assert out[0] == pytest.approx(0.25)


class TestContribution:
    @staticmethod
    def contribution(front, candidate, reference):
        return hypervolume_contributions(front, np.array([candidate]),
                                         reference)[0]

    def test_dominating_point_contributes(self):
        front = np.array([[0.5, 0.5]])
        gain = self.contribution(front, [0.2, 0.2], [1.0, 1.0])
        assert gain == pytest.approx(0.8 * 0.8 - 0.25)

    def test_dominated_point_contributes_nothing(self):
        front = np.array([[0.2, 0.2]])
        assert self.contribution(front, [0.5, 0.5], [1.0, 1.0]) == 0.0

    def test_contribution_to_empty_front(self):
        gain = self.contribution(np.zeros((0, 2)), [0.5, 0.5], [1.0, 1.0])
        assert gain == pytest.approx(0.25)

    def test_incomparable_point_adds_volume(self):
        front = np.array([[0.1, 0.9]])
        gain = self.contribution(front, [0.9, 0.1], [1.0, 1.0])
        assert gain > 0.0


class TestNondominatedBoxes:
    """The box decomposition the 3-D contributions are scored against."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    def test_at_most_two_boxes_per_point_plus_one(self, seed, n):
        points = np.random.default_rng(seed).random((n, 3)) * 1.3
        lower, upper = _nondominated_boxes(points, np.full(3, 1.1))
        assert lower.shape == upper.shape == (lower.shape[0], 3)
        assert 1 <= lower.shape[0] <= 2 * n + 1
        assert np.all(lower < upper)

    def test_weakly_dominated_ties_add_no_boxes(self):
        # After the first point: a duplicate, one sharing its y with a
        # larger x, and one sharing its x with a larger y.
        points = np.array([[0.0, 5.0, 0.0], [0.0, 5.0, 0.0],
                           [3.0, 5.0, 1.0], [0.0, 7.0, 2.0]])
        lower, upper = _nondominated_boxes(points, np.full(3, 9.0))
        assert lower.shape[0] == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("corner", [-1.0, 0.0, 3.0])
    def test_tiles_the_undominated_region_exactly(self, seed, corner):
        points, _, reference = grid_instance(seed)
        lower, upper = _nondominated_boxes(points, reference)
        # Ties abound on the grid: duplicates, weakly dominated points
        # and shared z values must add no boxes, empty ones included.
        inside = points[np.all(points < reference, axis=1)]
        front = np.unique(inside[non_dominated_mask(inside)], axis=0)
        assert lower.shape[0] <= 2 * len(front) + 1
        assert np.all(lower < upper)
        floor = np.full(3, corner)
        clipped = np.maximum(upper - np.maximum(lower, floor), 0.0)
        volume = float(clipped.prod(axis=1).sum())
        kept = np.maximum(points, floor)
        assert volume == (float(np.prod(reference - floor))
                          - hypervolume(kept, reference))
