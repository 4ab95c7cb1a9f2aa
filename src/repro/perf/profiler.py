"""Wall-time, throughput and cache-hit-rate profiling primitives.

The profiler is deliberately dependency-free (stdlib only): phases are
timed with ``time.perf_counter`` context managers, and the process-wide
cache, pool, GP and fidelity counters are measured as deltas
across each phase, so activity outside the profiled window does not
pollute the numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.core.evalcache import CacheStats, shared_report_cache
from repro.optim.gp import GpStats, gp_stats
from repro.perf.counters import (
    FidelityStats,
    PoolStats,
    fidelity_stats,
    pool_stats,
)

#: Every process-wide stat record a phase measures as a delta:
#: (``PhaseRecord`` field, accessor of the live record).  The report
#: cache is looked up on each call because it can be replaced.
_STAT_SOURCES = (
    ("cache", lambda: shared_report_cache().stats),
    ("pool", pool_stats),
    ("gp", gp_stats),
    ("fidelity", fidelity_stats),
)


@dataclass
class PhaseRecord:
    """Aggregated measurements for one named phase."""

    name: str
    wall_s: float = 0.0
    calls: int = 0
    evaluations: int = 0
    #: Simulator/environment steps executed within the phase (e.g.
    #: Phase 1 rollout transitions), for throughput reporting.
    steps: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: Worker-pool serial fallbacks within the phase.
    pool: PoolStats = field(default_factory=PoolStats)
    #: GP surrogate fitting activity (full refits vs incremental
    #: factor updates) within the phase.
    gp: GpStats = field(default_factory=GpStats)
    #: Multi-fidelity screening activity (tier-0 screens, promotions,
    #: pruned simulator evaluations) within the phase.
    fidelity: FidelityStats = field(default_factory=FidelityStats)

    @property
    def evaluations_per_second(self) -> float:
        """Evaluation throughput within the phase (0 when untimed)."""
        if self.wall_s <= 0:
            return 0.0
        return self.evaluations / self.wall_s

    @property
    def steps_per_second(self) -> float:
        """Step throughput within the phase (0 when untimed)."""
        if self.wall_s <= 0:
            return 0.0
        return self.steps / self.wall_s


@dataclass
class ProfileReport:
    """Everything one profiled run measured."""

    phases: List[PhaseRecord]
    total_wall_s: float

    @property
    def total_evaluations(self) -> int:
        """Design evaluations across all phases."""
        return sum(p.evaluations for p in self.phases)

    @property
    def total_steps(self) -> int:
        """Environment/simulator steps across all phases."""
        return sum(p.steps for p in self.phases)

    @property
    def overall_cache(self) -> CacheStats:
        """Cache activity summed over all phases."""
        total = CacheStats()
        for phase in self.phases:
            total.merge(phase.cache)
        return total

    @property
    def overall_pool(self) -> PoolStats:
        """Worker-pool serial fallbacks summed over all phases."""
        total = PoolStats()
        for phase in self.phases:
            total.merge(phase.pool)
        return total


class Profiler:
    """Collects phase timings and stat deltas for one run."""

    def __init__(self):
        self._phases: "Dict[str, PhaseRecord]" = {}
        self._order: List[str] = []
        self._started = time.perf_counter()

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseRecord]:
        """Time one phase; the stat records are measured as deltas.

        The yielded record can be annotated mid-phase (e.g. setting
        ``evaluations`` once the DSE budget is known).
        """
        record = self._record(name)
        before = [live().snapshot() for _, live in _STAT_SOURCES]
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_s += time.perf_counter() - start
            record.calls += 1
            for (kind, live), snapshot in zip(_STAT_SOURCES, before):
                getattr(record, kind).merge(live().since(snapshot))

    def add_evaluations(self, phase_name: str, count: int) -> None:
        """Credit ``count`` design evaluations to a phase."""
        self._record(phase_name).evaluations += count

    def add_steps(self, phase_name: str, count: int) -> None:
        """Credit ``count`` environment/simulator steps to a phase."""
        self._record(phase_name).steps += count

    def _record(self, phase_name: str) -> PhaseRecord:
        record = self._phases.get(phase_name)
        if record is None:
            record = PhaseRecord(name=phase_name)
            self._phases[phase_name] = record
            self._order.append(phase_name)
        return record

    def report(self) -> ProfileReport:
        """Snapshot the measurements collected so far."""
        return ProfileReport(
            phases=[self._phases[name] for name in self._order],
            total_wall_s=time.perf_counter() - self._started,
        )


def render_profile(report: ProfileReport) -> str:
    """Render a profile as a compact fixed-width table."""
    lines: List[str] = []
    lines.append("## Profile")
    header = (f"{'phase':<18} {'wall s':>8} {'evals':>7} "
              f"{'evals/s':>9} {'steps':>9} {'steps/s':>9} {'hit rate':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for phase in report.phases:
        hit_rate = (f"{phase.cache.hit_rate:.1%}"
                    if phase.cache.lookups else "-")
        evals_s = (f"{phase.evaluations_per_second:.1f}"
                   if phase.evaluations else "-")
        evals = str(phase.evaluations) if phase.evaluations else "-"
        steps = str(phase.steps) if phase.steps else "-"
        steps_s = (f"{phase.steps_per_second:.0f}"
                   if phase.steps else "-")
        lines.append(f"{phase.name:<18} {phase.wall_s:>8.3f} {evals:>7} "
                     f"{evals_s:>9} {steps:>9} {steps_s:>9} {hit_rate:>9}")
    overall = report.overall_cache
    lines.append("-" * len(header))
    lines.append(f"{'total':<18} {report.total_wall_s:>8.3f} "
                 f"{report.total_evaluations or '-':>7} "
                 f"{'':>9} "
                 f"{report.total_steps or '-':>9} "
                 f"{'':>9} "
                 f"{(f'{overall.hit_rate:.1%}' if overall.lookups else '-'):>9}")
    for phase in report.phases:
        if phase.gp.full_fits:
            lines.append(
                f"{phase.name} gp: {phase.gp.full_fits} full fits "
                f"({phase.gp.fit_wall_s:.3f} s), "
                f"{phase.gp.factorisations} factorisations")
        if phase.gp.proposal_groups:
            lines.append(
                f"{phase.name} proposals: {phase.gp.proposal_groups} "
                f"groups, {phase.gp.proposed_points} points, "
                f"mean group size {phase.gp.mean_proposal_group:.1f}")
        if phase.fidelity.screen_calls:
            fid = phase.fidelity
            lines.append(
                f"{phase.name} fidelity: {fid.screened} screened in "
                f"{fid.screen_calls} groups ({fid.screen_wall_s:.3f} s), "
                f"{fid.promoted} promoted ({fid.promotion_rate:.0%}, "
                f"{fid.rail_promotions} via safety rail), "
                f"{fid.pruned} simulator evals avoided "
                f"(~{fid.est_sim_seconds_saved:.2f} s saved)")
    pool = report.overall_pool
    if pool.fallbacks:
        lines.append(
            f"pool faults: {pool.fallbacks} serial fallbacks, "
            f"{pool.rerun_tasks} tasks rerun in the parent")
    return "\n".join(lines)
