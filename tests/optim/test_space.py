"""Unit tests for the design-space abstraction."""

import numpy as np
import pytest

from repro.errors import DesignSpaceError
from repro.optim.space import DesignSpace, Dimension


@pytest.fixture
def space():
    return DesignSpace([
        Dimension("a", (1, 2, 4, 8)),
        Dimension("b", ("x", "y", "z")),
    ])


class TestDimension:
    def test_index_of(self):
        dim = Dimension("d", (10, 20, 30))
        assert dim.index_of(20) == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (10,)).index_of(99)

    def test_rejects_empty(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", ())

    def test_rejects_duplicates(self):
        with pytest.raises(DesignSpaceError):
            Dimension("d", (1, 1))


class TestDesignSpace:
    def test_size(self, space):
        assert space.size() == 12

    def test_rejects_duplicate_names(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([Dimension("a", (1,)), Dimension("a", (2,))])

    def test_rejects_empty_space(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace([])

    def test_validate_complete_assignment(self, space):
        space.validate({"a": 4, "b": "y"})

    def test_validate_rejects_missing_key(self, space):
        with pytest.raises(DesignSpaceError):
            space.validate({"a": 4})

    def test_validate_rejects_unknown_value(self, space):
        with pytest.raises(DesignSpaceError):
            space.validate({"a": 3, "b": "y"})

    def test_encode_normalised(self, space):
        vec = space.encode({"a": 8, "b": "x"})
        assert vec[0] == pytest.approx(1.0)
        assert vec[1] == pytest.approx(0.0)

    def test_encode_many_is_index_over_last_index(self, space):
        points = list(space.all_points())
        expected = [[dim.index_of(p[dim.name]) / (len(dim.values) - 1)
                     for dim in space.dimensions] for p in points]
        assert space.encode_many(points).tolist() == expected
        single = DesignSpace([Dimension("one", (5,)),
                              Dimension("b", ("x", "y", "z"))])
        assert single.encode_many([{"one": 5, "b": "z"}]).tolist() == [
            [0.0, 1.0]]

    def test_encode_many_validates_every_row(self, space):
        with pytest.raises(DesignSpaceError):
            space.encode_many([{"a": 1, "b": "x"}, {"a": 3, "b": "y"}])
        with pytest.raises(DesignSpaceError):
            space.encode_many([{"a": 1, "b": "x"}, {"a": 1}])
        with pytest.raises(DesignSpaceError):
            space.encode_many([{"a": 1, "b": "x", "c": 0}])
        assert space.encode_many([]).shape == (0, 2)

    def test_sample_valid_points(self, space, rng):
        for point in space.sample(rng, 20):
            space.validate(point)

    def test_sample_covers_space(self, space, rng):
        keys = {space.key(p) for p in space.sample(rng, 200)}
        assert len(keys) == space.size()

    def test_neighbor_changes_exactly_one_dim(self, space, rng):
        start = {"a": 2, "b": "y"}
        for _ in range(20):
            neighbor = space.neighbor(start, rng)
            space.validate(neighbor)
            changed = [k for k in start if start[k] != neighbor[k]]
            assert len(changed) == 1

    def test_neighbor_moves_one_step(self, space, rng):
        start = {"a": 2, "b": "y"}
        for _ in range(20):
            neighbor = space.neighbor(start, rng)
            for dim in space.dimensions:
                delta = abs(dim.index_of(neighbor[dim.name])
                            - dim.index_of(start[dim.name]))
                assert delta <= 1

    def test_all_points_enumerates_everything(self, space):
        points = list(space.all_points())
        assert len(points) == 12
        assert len({space.key(p) for p in points}) == 12

    def test_key_is_hashable_identity(self, space):
        a = space.key({"a": 2, "b": "y"})
        b = space.key({"b": "y", "a": 2})
        assert a == b
        hash(a)

    def test_from_key_inverts_key(self, space):
        for point in space.all_points():
            assert space.from_key(space.key(point)) == point

    def test_sampled_rows_encode_like_their_assignments(self, space, rng):
        rows, keys = space.sample_rows(rng, 25)
        assignments = [space.from_key(key) for key in keys]
        np.testing.assert_array_equal(space.encode_indices(rows),
                                      space.encode_many(assignments))

    def test_neighbor_of_single_valued_space_is_itself(self, rng):
        space = DesignSpace([Dimension("only", ("v",))])
        assert space.neighbor({"only": "v"}, rng) == {"only": "v"}


class TestSampleBlockStream:
    """Vectorised sampling must consume the seed's exact RNG stream."""

    def _space(self):
        return DesignSpace([
            Dimension("a", tuple(range(4))),
            Dimension("b", tuple(range(7))),
            Dimension("c", tuple(range(3))),
        ])

    def test_block_matches_sequential_draws(self):
        space = self._space()
        for seed in range(10):
            r_seq = np.random.default_rng(seed)
            r_blk = np.random.default_rng(seed)
            expected = [
                {dim.name: dim.values[r_seq.integers(len(dim.values))]
                 for dim in space.dimensions}
                for _ in range(9)
            ]
            points, keys = space.sample_block(r_blk, 9)
            assert points == expected
            assert keys == [space.key(p) for p in points]
            # Post-draw generator state must match too.
            assert r_seq.integers(10 ** 6) == r_blk.integers(10 ** 6)

    def test_sample_delegates_to_block(self):
        space = self._space()
        a = space.sample(np.random.default_rng(3), 5)
        b, _ = space.sample_block(np.random.default_rng(3), 5)
        assert a == b

    def test_empty_block(self):
        points, keys = self._space().sample_block(
            np.random.default_rng(0), 0)
        assert points == [] and keys == []
