"""Tests for the performance profiling layer."""

import time

import pytest

from repro.core.evalcache import CacheStats, shared_report_cache
from repro.core.parallel import PoolStats
from repro.optim.fidelity import FidelityStats
from repro.optim.gp import GpStats
from repro.perf import PhaseRecord, Profiler, ProfileReport, render_profile


class TestProfiler:
    def test_phase_records_wall_time(self):
        profiler = Profiler()
        with profiler.phase("work"):
            time.sleep(0.01)
        report = profiler.report()
        assert report.phases[0].name == "work"
        assert report.phases[0].wall_s >= 0.01
        assert report.total_wall_s >= report.phases[0].wall_s

    def test_repeated_phase_accumulates(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.phase("work"):
                pass
        report = profiler.report()
        assert len(report.phases) == 1
        assert report.phases[0].calls == 3

    def test_phase_order_preserved(self):
        profiler = Profiler()
        for name in ("phase1", "phase2", "phase3"):
            with profiler.phase(name):
                pass
        assert [p.name for p in profiler.report().phases] == \
            ["phase1", "phase2", "phase3"]

    def test_evaluations_credit_and_throughput(self):
        profiler = Profiler()
        with profiler.phase("dse"):
            time.sleep(0.005)
        profiler.add_evaluations("dse", 50)
        record = profiler.report().phases[0]
        assert record.evaluations == 50
        assert record.evaluations_per_second > 0

    def test_mid_phase_annotation(self):
        profiler = Profiler()
        with profiler.phase("dse") as record:
            record.evaluations += 7
        assert profiler.report().phases[0].evaluations == 7

    def test_cache_delta_accounting(self):
        profiler = Profiler()
        cache = shared_report_cache()
        cache.get(("profiler-test-outside",))  # miss outside any phase
        with profiler.phase("work"):
            cache.put(("profiler-test-key",), 1)
            cache.get(("profiler-test-key",))
            cache.get(("profiler-test-absent",))
        record = profiler.report().phases[0]
        assert record.cache.hits == 1
        assert record.cache.misses == 1

    def test_exception_inside_phase_still_recorded(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("broken"):
                raise RuntimeError("boom")
        assert profiler.report().phases[0].calls == 1


class TestProfileReport:
    def test_total_evaluations_sums_phases(self):
        profiler = Profiler()
        profiler.add_evaluations("a", 3)
        profiler.add_evaluations("b", 4)
        assert profiler.report().total_evaluations == 7

    def test_overall_cache_sums_phases(self):
        profiler = Profiler()
        cache = shared_report_cache()
        with profiler.phase("a"):
            cache.put(("report-test-key",), 1)
            cache.get(("report-test-key",))
        with profiler.phase("b"):
            cache.get(("report-test-key",))
            cache.get(("report-test-absent",))
        overall = profiler.report().overall_cache
        assert overall.hits == 2
        assert overall.misses == 1

    def test_render_contains_phases_and_totals(self):
        profiler = Profiler()
        with profiler.phase("phase2"):
            pass
        profiler.add_evaluations("phase2", 12)
        text = render_profile(profiler.report())
        assert "## Profile" in text
        assert "phase2" in text
        assert "12" in text


class TestStepCounters:
    def test_add_steps_and_throughput(self):
        profiler = Profiler()
        with profiler.phase("phase1"):
            pass
        profiler.add_steps("phase1", 1000)
        record = profiler.report().phases[0]
        assert record.steps == 1000
        assert record.steps_per_second > 0
        assert profiler.report().total_steps == 1000

    def test_render_includes_steps_column(self):
        profiler = Profiler()
        with profiler.phase("phase1"):
            pass
        profiler.add_steps("phase1", 4321)
        text = render_profile(profiler.report())
        assert "steps/s" in text
        assert "4321" in text

    def test_untimed_phase_has_zero_step_rate(self):
        profiler = Profiler()
        profiler.add_steps("phase1", 10)
        assert profiler.report().phases[0].steps_per_second == 0.0


#: ``render_profile`` of :func:`_golden_report`, pinned byte for byte:
#: every per-phase counter line the table can print, in order.
GOLDEN_PROFILE = """\
## Profile
phase                wall s   evals   evals/s     steps   steps/s  hit rate
---------------------------------------------------------------------------
phase1                0.619       -         -     20059     32405     50.0%
phase2                0.167      25     149.7         -         -     32.4%
phase3                0.002       -         -         -         -         -
---------------------------------------------------------------------------
total                 0.788      25               20059               35.0%
phase2 gp: 39 full fits (0.016 s), 65 factorisations
phase2 proposals: 4 groups, 13 points, mean group size 3.2
phase2 fidelity: 32 screened in 4 groups (0.004 s), 13 promoted \
(41%, 2 via safety rail), 19 simulator evals avoided (~0.04 s saved)
pool faults: 2 serial fallbacks, 3 tasks rerun in the parent"""


def _golden_report() -> ProfileReport:
    phases = [
        PhaseRecord(name="phase1", wall_s=0.619, calls=1, steps=20059,
                    cache=CacheStats(hits=3, misses=3),
                    pool=PoolStats(fallbacks=2, rerun_tasks=3)),
        PhaseRecord(name="phase2", wall_s=0.167, calls=1, evaluations=25,
                    cache=CacheStats(hits=11, misses=23, evictions=1),
                    gp=GpStats(full_fits=39, factorisations=65,
                               fit_wall_s=0.016, proposal_groups=4,
                               proposed_points=13),
                    fidelity=FidelityStats(screen_calls=4, screened=32,
                                           promoted=13, rail_promotions=2,
                                           screen_wall_s=0.004,
                                           tier1_wall_s=0.026,
                                           tier1_points=13)),
        PhaseRecord(name="phase3", wall_s=0.002, calls=1),
    ]
    return ProfileReport(phases=phases, total_wall_s=0.788)


class TestRenderGolden:
    def test_render_is_byte_stable(self):
        assert render_profile(_golden_report()) == GOLDEN_PROFILE


@pytest.mark.parametrize("stats_cls", [CacheStats, PoolStats, GpStats,
                                       FidelityStats])
def test_stat_records_share_the_delta_arithmetic(stats_cls):
    live = stats_cls()
    names = list(vars(live))
    before = live.snapshot()
    for offset, name in enumerate(names, start=1):
        setattr(live, name, getattr(live, name) + offset)
    delta = live.since(before)
    assert type(delta) is stats_cls
    assert [getattr(delta, n) for n in names] == \
        list(range(1, len(names) + 1))
    assert before == stats_cls()  # the snapshot is an independent copy
    total = stats_cls()
    total.merge(delta)
    total.merge(delta)
    assert [getattr(total, n) for n in names] == \
        [2 * i for i in range(1, len(names) + 1)]
