"""Wall-time, throughput and cache-hit-rate profiling primitives.

The profiler is deliberately dependency-free (stdlib only): phases are
timed with ``time.perf_counter`` context managers, counters accumulate
named integers (evaluations, simulations), and cache activity is
measured as a delta of the shared cache's counters across each phase,
so concurrent users of the cache outside the profiled window do not
pollute the numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.evalcache import CacheStats, shared_report_cache
from repro.core.parallel import PoolStats, pool_stats
from repro.optim.fidelity import FidelityStats, fidelity_stats
from repro.optim.gp import GpStats, gp_stats
from repro.soc.batch import BatchStats, batch_stats


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
    #: Worker-pool fault/retry activity within the phase.
    pool: PoolStats = field(default_factory=PoolStats)
    #: GP surrogate fitting activity (full refits vs incremental
    #: factor updates) within the phase.
    gp: GpStats = field(default_factory=GpStats)
    #: Batched-evaluation activity (calls, designs, kernel-simulated
    #: designs) within the phase.
    batch: BatchStats = field(default_factory=BatchStats)
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
    counters: Dict[str, int]

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
        """Worker-pool fault/retry activity summed over all phases."""
        total = PoolStats()
        for phase in self.phases:
            total.merge(phase.pool)
        return total

    @property
    def overall_gp(self) -> GpStats:
        """GP fitting activity summed over all phases."""
        total = GpStats()
        for phase in self.phases:
            total.merge(phase.gp)
        return total

    @property
    def overall_batch(self) -> BatchStats:
        """Batched-evaluation activity summed over all phases."""
        total = BatchStats()
        for phase in self.phases:
            total.merge(phase.batch)
        return total

    @property
    def overall_fidelity(self) -> FidelityStats:
        """Multi-fidelity screening activity summed over all phases."""
        total = FidelityStats()
        for phase in self.phases:
            total.merge(phase.fidelity)
        return total


class Profiler:
    """Collects phase timings, counters and cache deltas for one run."""

    def __init__(self):
        self._phases: "Dict[str, PhaseRecord]" = {}
        self._order: List[str] = []
        self._counters: Dict[str, int] = {}
        self._started = time.perf_counter()

    @contextmanager
    def phase(self, name: str,
              evaluations: Optional[int] = None) -> Iterator[PhaseRecord]:
        """Time one phase; cache counters are measured as a delta.

        The yielded record can be annotated mid-phase (e.g. setting
        ``evaluations`` once the DSE budget is known).
        """
        record = self._phases.get(name)
        if record is None:
            record = PhaseRecord(name=name)
            self._phases[name] = record
            self._order.append(name)
        cache_before = shared_report_cache().stats.snapshot()
        pool_before = pool_stats().snapshot()
        gp_before = gp_stats().snapshot()
        batch_before = batch_stats().snapshot()
        fidelity_before = fidelity_stats().snapshot()
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_s += time.perf_counter() - start
            record.calls += 1
            record.cache.merge(shared_report_cache().stats.since(cache_before))
            record.pool.merge(pool_stats().since(pool_before))
            record.gp.merge(gp_stats().since(gp_before))
            record.batch.merge(batch_stats().since(batch_before))
            record.fidelity.merge(fidelity_stats().since(fidelity_before))
            if evaluations is not None:
                record.evaluations += evaluations

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

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a named counter."""
        self._counters[name] = self._counters.get(name, 0) + increment

    def report(self) -> ProfileReport:
        """Snapshot the measurements collected so far."""
        return ProfileReport(
            phases=[self._phases[name] for name in self._order],
            total_wall_s=time.perf_counter() - self._started,
            counters=dict(self._counters),
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
        if phase.gp.full_fits or phase.gp.incremental_updates:
            lines.append(
                f"{phase.name} gp: {phase.gp.full_fits} full fits "
                f"({phase.gp.fit_wall_s:.3f} s), "
                f"{phase.gp.incremental_updates} incremental updates "
                f"({phase.gp.update_wall_s:.3f} s), "
                f"{phase.gp.factorisations} factorisations")
        if phase.gp.proposal_groups:
            lines.append(
                f"{phase.name} proposals: {phase.gp.proposal_groups} "
                f"groups, {phase.gp.proposed_points} points, "
                f"mean group size {phase.gp.mean_proposal_group:.1f}")
        if phase.batch.batch_calls:
            line = (
                f"{phase.name} batches: {phase.batch.batch_calls} calls, "
                f"mean batch size {phase.batch.mean_batch_size:.1f}, "
                f"{phase.batch.kernel_designs} kernel-simulated designs "
                f"({phase.batch.kernel_wall_s:.3f} s in kernels)")
            if phase.batch.proposal_calls:
                line += (
                    f", {phase.batch.proposal_calls} proposal batches "
                    f"(mean {phase.batch.mean_proposal_batch:.1f})")
            lines.append(line)
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
    if pool.total_faults:
        lines.append(
            f"pool faults: {pool.chunk_failures} chunk failures, "
            f"{pool.chunk_retries} retries, {pool.pool_respawns} respawns, "
            f"{pool.poisoned_chunks} poisoned, "
            f"{pool.unpicklable_chunks} unpicklable, "
            f"{pool.serial_fallback_chunks} serial-fallback chunks")
    if pool.warm_dispatches or pool.shm_batches:
        lines.append(
            f"warm runtime: {pool.warm_dispatches} warm dispatches "
            f"({pool.cold_dispatches} cold), "
            f"{pool.warm_pool_spawns} pool spawns, "
            f"{pool.warm_pool_reuses} reuses, "
            f"{pool.shm_batches} shm batches "
            f"({pool.shm_bytes / 1e6:.2f} MB zero-copy)")
    if overall.disk_writes or overall.disk_evictions or overall.migrated:
        lines.append(
            f"disk cache: {overall.disk_hits} hits, "
            f"{overall.disk_writes} writes, "
            f"{overall.disk_evictions} evictions, "
            f"{overall.migrated} migrated from legacy layout")
    if overall.corrupt:
        lines.append(f"cache entries quarantined: {overall.corrupt}")
    for name in sorted(report.counters):
        lines.append(f"{name}: {report.counters[name]}")
    return "\n".join(lines)
