"""Delta arithmetic shared by the process-wide stat records.

``CacheStats``, ``PoolStats``, ``GpStats`` and ``FidelityStats`` are
dataclasses of numeric counters, each with one live process-wide
instance.  The profiler measures a phase as the difference of two
snapshots of that instance and sums the deltas per phase;
:class:`DeltaCounters` gives every record that arithmetic once.

``PoolStats`` and ``FidelityStats`` live here with their live
instances, so the profiler can read them without loading the process
pool or the multi-fidelity evaluator, which only some runs use;
:mod:`repro.core.parallel` and :mod:`repro.optim.fidelity` count into
them and re-export them.  This module imports nothing from ``repro``,
so every owner can use it without pulling in
:mod:`repro.perf.profiler`, which imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class PoolStats(DeltaCounters):
    """Counters for the process pool's serial fallback (process-wide).

    The profiler snapshots the module-wide instance per phase and
    reports deltas (:class:`DeltaCounters`).
    """

    fallbacks: int = 0    # pool runs that reran some tasks serially
    rerun_tasks: int = 0  # tasks rerun serially in the parent


_pool_stats = PoolStats()


def pool_stats() -> PoolStats:
    """The process-wide pool failure/recovery counters."""
    return _pool_stats


@dataclass
class FidelityStats(DeltaCounters):
    """Process-wide counters for the multi-fidelity screening path.

    The profiler snapshots the module-wide instance per phase and
    reports deltas (:class:`DeltaCounters`).
    """

    screen_calls: int = 0      # screened proposal groups
    screened: int = 0          # fresh points scored at tier-0
    promoted: int = 0          # points promoted to tier-1
    rail_promotions: int = 0   # promotions owed to the safety rail alone
    screen_wall_s: float = 0.0  # wall time inside the tier-0 screen
    tier1_wall_s: float = 0.0   # wall time inside promoted tier-1 evals
    tier1_points: int = 0       # points evaluated in those tier-1 calls

    @property
    def pruned(self) -> int:
        """Screened points never promoted (simulator evals avoided)."""
        return self.screened - self.promoted

    @property
    def promotion_rate(self) -> float:
        """Fraction of screened points promoted to tier-1."""
        if self.screened == 0:
            return 0.0
        return self.promoted / self.screened

    @property
    def mean_tier1_eval_s(self) -> float:
        """Mean wall seconds per promoted tier-1 evaluation."""
        if self.tier1_points == 0:
            return 0.0
        return self.tier1_wall_s / self.tier1_points

    @property
    def est_sim_seconds_saved(self) -> float:
        """Pruned points priced at the measured tier-1 cost."""
        return self.pruned * self.mean_tier1_eval_s


_fidelity_stats = FidelityStats()


def fidelity_stats() -> FidelityStats:
    """The process-wide multi-fidelity screening counters."""
    return _fidelity_stats
