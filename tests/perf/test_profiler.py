"""Tests for the span tree and the ``--profile`` table rendered from it."""

import gc
import threading
import time

import pytest

import repro.perf.profiler as profiler
from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import shared_report_cache
from repro.core.phase3 import BackEnd
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.perf import Span, count, recorded_span, render_profile, span
from repro.uav.platforms import NANO_ZHANG


def row(text: str, name: str) -> list:
    """The whitespace-split table row of phase ``name``."""
    return next(line.split() for line in text.splitlines()
                if line.startswith(name + " "))


def cache_counts(node: Span) -> tuple:
    return node.total("cache.hits"), node.total("cache.misses")


class TestProfiler:
    def test_phase_records_wall_time(self):
        with span("run") as run:
            with span("work"):
                time.sleep(0.01)
        assert run.children[0].name == "work"
        assert run.children[0].wall_s >= 0.01
        assert run.wall_s >= run.children[0].wall_s

    def test_repeated_phase_accumulates(self):
        with span("run") as run:
            for _ in range(3):
                with span("work"):
                    count("evals")
        assert len(run.find("work")) == 3
        assert run.total("evals") == 3

    def test_phase_order_preserved(self):
        with span("run") as run:
            for name in ("phase1", "phase2", "phase3"):
                with span(name):
                    pass
        assert [p.name for p in run.children] == \
            ["phase1", "phase2", "phase3"]

    def test_evaluations_credit_and_throughput(self):
        with span("run") as run:
            with span("dse") as dse:
                time.sleep(0.005)
                count("evals", 50)
        assert dse.counts == {"evals": 50}
        _, _, evals, evals_s, *_ = row(render_profile(run), "dse")
        assert evals == "50"
        assert float(evals_s) > 0

    def test_mid_phase_annotation(self):
        with span("dse") as dse:
            with span("gp.fit"):
                count("evals", 7)
        assert dse.counts == {}
        assert dse.total("evals") == 7

    def test_cache_delta_accounting(self):
        cache = shared_report_cache()
        cache.get(("profiler-test-outside",))  # miss outside any span
        with span("work") as work:
            cache.put(("profiler-test-key",), 1)
            cache.get(("profiler-test-key",))
            cache.get(("profiler-test-absent",))
        assert cache_counts(work) == (1, 1)

    def test_exception_inside_phase_still_recorded(self):
        with span("run") as run:
            with pytest.raises(RuntimeError):
                with span("broken"):
                    raise RuntimeError("boom")
        assert [p.name for p in run.children] == ["broken"]
        assert run.children[0].wall_s > 0


class TestSpanScoping:
    def test_count_without_an_open_span_is_dropped(self):
        count("evals", 5)
        with span("run") as run:
            pass
        count("evals", 5)
        assert run.counts == {}
        assert run.children == []

    def test_recorded_span_without_an_open_span_is_a_no_op(self):
        with recorded_span("gp.fit") as node:
            count("gp.full_fits", 3)
        assert node is None

    def test_recorded_span_nests_under_the_open_span(self):
        with span("run") as run:
            with recorded_span("sweep") as node:
                count("evals", 4)
        assert run.children == [node]
        assert run.total("evals") == 4

    def test_recorded_root_span_is_kept(self):
        with recorded_span("run", root=True) as run:
            with recorded_span("sweep"):
                count("evals", 2)
        assert [child.name for child in run.children] == ["sweep"]
        assert run.total("evals") == 2

    def test_second_thread_lookups_stay_out_of_the_open_span(self):
        cache = shared_report_cache()
        before = cache.stats.misses
        with span("phase") as phase:
            worker = threading.Thread(target=lambda: [
                cache.get(("profiler-thread-absent", i)) for i in range(5)])
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert cache.stats.misses - before == 5
        assert cache_counts(phase) == (0, 0)

    def test_profiled_runs_in_one_open_span_report_only_their_own(self):
        config = RunConfig(seed=3, budget=12)
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        stats = shared_report_cache().stats
        lookups = []
        with span("sweep") as sweep:
            profiles = []
            for _ in range(2):
                hits, misses = stats.hits, stats.misses
                profiles.append(AutoPilot(config).run(task,
                                                      profile=True).profile)
                lookups.append((stats.hits - hits, stats.misses - misses))
        assert sweep.children == profiles
        for profile, own_lookups in zip(profiles, lookups):
            assert profile.total("evals") == config.budget
            assert cache_counts(profile) == own_lookups
        assert sweep.total("evals") == 2 * config.budget

    def test_unprofiled_run_keeps_no_span(self, monkeypatch):
        """A default run opens no span of its own, and each span its
        layers open is dropped as its block ends: none is open when
        Phase 3 starts, and none made in Phase 2 is still alive."""
        made = []

        class CountedSpan(Span):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self.name)

        monkeypatch.setattr(profiler, "Span", CountedSpan)
        seen = {}
        phase3 = BackEnd.run

        def probe(backend, *args, **kwargs):
            seen["open"] = profiler._open_span.get()
            seen["alive"] = [node.name for node in gc.get_objects()
                             if isinstance(node, CountedSpan)]
            return phase3(backend, *args, **kwargs)

        monkeypatch.setattr(BackEnd, "run", probe)
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        result = AutoPilot(RunConfig(seed=3, budget=20)).run(task)
        assert result.profile is None
        assert "gp.fit" in made and "gp.predict" in made
        assert seen == {"open": None, "alive": []}


class TestProfileReport:
    def test_total_evaluations_sums_phases(self):
        with span("run") as run:
            with span("a"):
                count("evals", 3)
            with span("b"):
                count("evals", 4)
        assert run.total("evals") == 7

    def test_overall_cache_sums_phases(self):
        cache = shared_report_cache()
        with span("run") as run:
            with span("a"):
                cache.put(("report-test-key",), 1)
                cache.get(("report-test-key",))
            with span("b"):
                cache.get(("report-test-key",))
                cache.get(("report-test-absent",))
        assert cache_counts(run) == (2, 1)

    def test_render_contains_phases_and_totals(self):
        with span("run") as run:
            with span("phase2"):
                count("evals", 12)
        text = render_profile(run)
        assert "## Profile" in text
        assert "phase2" in text
        assert "12" in text


class TestStepCounters:
    def test_add_steps_and_throughput(self):
        with span("run") as run:
            with span("phase1") as phase1:
                count("steps", 1000)
        assert phase1.counts == {"steps": 1000}
        assert float(row(render_profile(run), "phase1")[5]) > 0
        assert run.total("steps") == 1000

    def test_render_includes_steps_column(self):
        with span("run") as run:
            with span("phase1"):
                count("steps", 4321)
        text = render_profile(run)
        assert "steps/s" in text
        assert "4321" in text

    def test_untimed_phase_has_zero_step_rate(self):
        run = Span("run", children=[Span("phase1", counts={"steps": 10})])
        assert row(render_profile(run), "phase1")[4:6] == ["10", "0"]


#: ``render_profile`` of :func:`_golden_run`, pinned byte for byte:
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
phase2 gp: 39 full fits (0.016 s), 65 factorisations, 4 predict calls \
(0.007 s)
phase2 proposals: 4 groups, 13 points, mean group size 3.2
phase2 fidelity: 32 screened in 4 groups (0.004 s), 13 promoted \
(41%, 2 via safety rail), 19 simulator evals avoided (~0.04 s saved)
pool faults: 2 serial fallbacks, 3 tasks rerun in the parent"""


def _golden_run() -> Span:
    phase1 = Span("phase1", wall_s=0.619, counts={
        "steps": 20059, "cache.hits": 3, "cache.misses": 3,
        "pool.fallbacks": 2, "pool.rerun_tasks": 3})
    phase2 = Span("phase2", wall_s=0.167, counts={
        "evals": 25, "cache.hits": 6, "cache.misses": 18,
        "proposal.groups": 4, "proposal.points": 13,
        "fidelity.screened": 32, "fidelity.promoted": 13,
        "fidelity.rail_promotions": 2}, children=[
        Span("gp.fit", wall_s=0.016,
             counts={"gp.full_fits": 39, "gp.factorisations": 65}),
        Span("gp.predict", wall_s=0.007),
        *(Span("gp.predict") for _ in range(3)),
        Span("fidelity.screen", wall_s=0.004,
             counts={"cache.hits": 1, "cache.misses": 5}),
        *(Span("fidelity.screen") for _ in range(3)),
        Span("fidelity.tier1", wall_s=0.026, counts={"cache.hits": 4}),
    ])
    phase3 = Span("phase3", wall_s=0.002)
    return Span("run", wall_s=0.788, children=[phase1, phase2, phase3])


class TestRenderGolden:
    def test_render_is_byte_stable(self):
        assert render_profile(_golden_run()) == GOLDEN_PROFILE
