"""Delta arithmetic shared by the process-wide stat records.

``CacheStats``, ``PoolStats``, ``GpStats`` and ``FidelityStats`` are
dataclasses of numeric counters, each with one live process-wide
instance.  The profiler measures a phase as the difference of two
snapshots of that instance and sums the deltas per phase;
:class:`DeltaCounters` gives every record that arithmetic once.

This module imports nothing from ``repro``, so the four owners can use
it without pulling in :mod:`repro.perf.profiler`, which imports them.
"""

from __future__ import annotations

from typing import TypeVar

_C = TypeVar("_C", bound="DeltaCounters")


class DeltaCounters:
    """``snapshot``/``since``/``merge`` over every dataclass field."""

    def snapshot(self: _C) -> _C:
        """A copy, for delta accounting across a profiling window."""
        return type(self)(**vars(self))

    def since(self: _C, baseline: _C) -> _C:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return type(self)(**{name: value - getattr(baseline, name)
                             for name, value in vars(self).items()})

    def merge(self: _C, delta: _C) -> None:
        """Accumulate another stats record into this one."""
        for name, value in vars(delta).items():
            setattr(self, name, getattr(self, name) + value)
