"""Categorical design-space abstraction shared by all optimisers.

AutoPilot's Phase 2 search space (Table II) is a product of ordered
categorical dimensions (layer counts, filter counts, PE dimensions, SRAM
sizes).  The space maps assignments to normalised vectors in [0, 1]^d
for the GP, supports uniform sampling, neighbourhood moves (for SA/GA)
and exhaustive enumeration (for the small sub-spaces used in tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import DesignSpaceError

Assignment = Dict[str, object]


@dataclass(frozen=True)
class Dimension:
    """One ordered-categorical dimension of the design space."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DesignSpaceError(f"dimension {self.name!r} has no values")
        # O(1) value -> index lookups; index_of sits on the hot path of
        # every encode/validate/key call in the DSE inner loop.
        index_map = {value: i for i, value in enumerate(self.values)}
        if len(index_map) != len(self.values):
            raise DesignSpaceError(f"dimension {self.name!r} has duplicates")
        object.__setattr__(self, "_index_map", index_map)

    def index_of(self, value: object) -> int:
        """Position of ``value`` within this dimension."""
        index = self._index_map.get(value)
        if index is None:
            raise DesignSpaceError(f"{value!r} not in dimension {self.name!r}")
        return index


class DesignSpace:
    """A product of ordered categorical dimensions."""

    def __init__(self, dimensions: Sequence[Dimension]):
        if not dimensions:
            raise DesignSpaceError("design space needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise DesignSpaceError("dimension names must be unique")
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._by_name = {d.name: d for d in self.dimensions}
        self._names = tuple(d.name for d in self.dimensions)
        self._name_set = frozenset(self._names)
        self._value_counts = np.array([len(d.values) for d in self.dimensions])
        # Encoding divides each value index by these; max(1, ...) keeps
        # a single-valued dimension at 0.
        self._denominators = np.maximum(self._value_counts - 1, 1)
        # One fancy index maps a column of value indices to its values.
        # Filled one element at a time: a slice assignment would unpack
        # tuple values, and NumPy before 1.23 has no object ``fromiter``.
        self._value_arrays = []
        for dim in self.dimensions:
            values = np.empty(len(dim.values), dtype=object)
            for i, value in enumerate(dim.values):
                values[i] = value
            self._value_arrays.append(values)

    @property
    def num_dimensions(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    def size(self) -> int:
        """Total number of points in the space."""
        total = 1
        for dim in self.dimensions:
            total *= len(dim.values)
        return total

    def validate(self, assignment: Assignment) -> None:
        """Raise if ``assignment`` is not a complete point in the space."""
        self._check_keys(assignment)
        for dim in self.dimensions:
            dim.index_of(assignment[dim.name])

    def _check_keys(self, assignment: Assignment) -> None:
        if assignment.keys() != self._name_set:
            raise DesignSpaceError(
                f"assignment keys {sorted(assignment)} do not match "
                f"dimensions {sorted(self._by_name)}")

    def encode(self, assignment: Assignment) -> np.ndarray:
        """Map an assignment to [0, 1]^d by normalised value index."""
        return self.encode_many([assignment])[0]

    def encode_many(self, assignments: Sequence[Assignment]) -> np.ndarray:
        """Encode a batch of assignments to an (n x d) matrix in [0, 1].

        Each row's key set is checked once; the value lookup that finds
        a column's indices also validates its values, and one vectorised
        division scales them.
        """
        for assignment in assignments:
            self._check_keys(assignment)
        indices = np.empty((len(assignments), self.num_dimensions),
                           dtype=np.int64)
        for i, dim in enumerate(self.dimensions):
            name = dim.name
            try:
                indices[:, i] = [dim._index_map[a[name]]
                                 for a in assignments]
            except KeyError:
                # A value outside the dimension: let index_of raise the
                # DesignSpaceError naming it.
                indices[:, i] = [dim.index_of(a[name]) for a in assignments]
        return self.encode_indices(indices)

    def encode_indices(self, indices: np.ndarray) -> np.ndarray:
        """Encode rows of value indices to the bits of their assignments."""
        return indices / self._denominators

    def sample(self, rng: np.random.Generator, count: int = 1) -> List[Assignment]:
        """Draw ``count`` uniform random points."""
        return self.sample_block(rng, count)[0]

    def sample_block(self, rng: np.random.Generator, count: int
                     ) -> Tuple[List[Assignment], List[Tuple[object, ...]]]:
        """Draw ``count`` uniform points as assignments plus their keys."""
        _, keys = self.sample_rows(rng, count)
        return [self.from_key(key) for key in keys], keys

    def sample_rows(self, rng: np.random.Generator, count: int
                    ) -> Tuple[np.ndarray, List[Tuple[object, ...]]]:
        """Draw ``count`` uniform points as value-index rows plus keys.

        Row ``i`` holds point ``i``'s value indices (:meth:`encode_indices`)
        and ``keys[i]`` its :meth:`key`, so a caller builds assignments
        (:meth:`from_key`) only for the points it keeps.  The draw
        consumes the generator stream bit-identically to ``count``
        sequential :meth:`sample` calls of the seed implementation, so
        optimiser trajectories are unchanged.
        """
        if count <= 0:
            return np.empty((0, self.num_dimensions), dtype=np.int64), []
        rows = rng.integers(self._value_counts,
                            size=(count, self.num_dimensions))
        columns = [values[column].tolist()
                   for values, column in zip(self._value_arrays, rows.T)]
        return rows, list(zip(*columns))

    def from_key(self, key: Tuple[object, ...]) -> Assignment:
        """The assignment whose :meth:`key` is ``key``."""
        return dict(zip(self._names, key))

    def neighbor(self, assignment: Assignment,
                 rng: np.random.Generator) -> Assignment:
        """Move one random dimension by +-1 step (ordered local move)."""
        self.validate(assignment)
        out = dict(assignment)
        dim = self.dimensions[rng.integers(self.num_dimensions)]
        index = dim.index_of(assignment[dim.name])
        if len(dim.values) == 1:
            return out
        step = int(rng.choice((-1, 1)))
        new_index = int(np.clip(index + step, 0, len(dim.values) - 1))
        if new_index == index:
            new_index = index - step
        out[dim.name] = dim.values[new_index]
        return out

    def all_points(self) -> Iterator[Assignment]:
        """Exhaustively enumerate the space (use only on small spaces)."""
        names = [d.name for d in self.dimensions]
        for combo in itertools.product(*(d.values for d in self.dimensions)):
            yield dict(zip(names, combo))

    def key(self, assignment: Assignment) -> Tuple[object, ...]:
        """A hashable identity for deduplication."""
        self.validate(assignment)
        return tuple(assignment[d.name] for d in self.dimensions)
