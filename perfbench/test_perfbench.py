"""Self-tests of the benchmark's pure helpers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import hashlib
import json
import statistics
import sys
import types
from pathlib import Path

import pytest

import calibrate
import run
import spans
from stats import digest_mismatch, percentile, quartiles
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- median and quartiles ------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [5.1, 4.8, 6.3, 5.0, 7.9, 5.4, 5.2]
    q1, mid, q3 = quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert mid == statistics.median(values)


def test_quartiles_of_one_and_none():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert percentile([7.0], 80) == 7.0


# -- span self-time arithmetic -------------------------------------------

def span(span_id, parent, name, start, end, **counters):
    return spans.Span(span_id, parent, name, start, end, counters)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 3.0
    assert spans.covered([(-1.0, 0.5), (0.8, 2.0)], 0.0, 1.0) == \
        pytest.approx(0.7)


def test_self_time_subtracts_children_once():
    view = spans.TraceView([
        span(0, -1, "outer", 0.0, 10.0),
        span(1, 0, "a", 1.0, 3.0),
        span(2, 0, "b", 2.0, 4.0),   # overlaps a (another thread)
        span(3, 1, "c", 1.5, 2.5),   # grandchild: not subtracted twice
    ])
    assert view.self_time(view.by_name["outer"][0]) == pytest.approx(7.0)
    assert view.self_time(view.by_name["a"][0]) == pytest.approx(1.0)
    assert view.self_total("c") == pytest.approx(1.0)


def test_totals_count_nested_repeats_once():
    view = spans.TraceView([
        span(0, -1, "f", 0.0, 4.0, rows=3),
        span(1, 0, "f", 1.0, 2.0, rows=5),  # recursion: inside the outer f
        span(2, -1, "f", 5.0, 6.0, rows=2),
        span(3, -1, "g", 6.0, 9.0),
    ])
    assert view.count("f") == 2
    assert view.total("f") == pytest.approx(5.0)
    assert view.counter("rows", "f") == 5
    assert view.total("f", "g") == pytest.approx(8.0)
    assert view.root_coverage() == pytest.approx(8.0)


def test_layer_metrics_from_a_synthetic_trace():
    view = spans.TraceView([
        span(0, -1, spans.IMPORT_SPAN, 0.0, 0.5),
        span(1, -1, spans.RUN, 0.5, 9.5, missions=80.0, cache_hits=3,
             cache_misses=1),
        span(2, 1, spans.DSE, 1.0, 9.0, evals=40, hypervolume=1.0),
        span(3, 2, spans.PROPOSE, 2.0, 4.0),
        span(4, 3, "MultiObjectiveGP.fit", 2.5, 3.0),
        span(5, 2, spans.PROPOSE, 5.0, 6.0),
    ])
    metrics = spans.layer_metrics(
        view, {}, {"traced_wall_s": 10.0, "program_wall_s": 9.5,
                   "untraced_wall_s": 9.0})
    assert set(metrics) == {m.name for m in spans.LAYER_METRICS}
    assert metrics["phase2.evals_per_s"]["value"] == pytest.approx(5.0)
    assert metrics["proposal.groups"]["value"] == 2
    assert metrics["proposal.self_s"]["value"] == pytest.approx(2.5)
    assert metrics["cache.hit_ratio"]["value"] == pytest.approx(0.75)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(1.0)
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0)
    assert metrics["dispatch.calls"]["status"] == "zero"
    assert metrics["gp.fit_s"]["status"] == "ok"


# -- the digest gate -----------------------------------------------------

def test_digest_gate(tmp_path):
    report = tmp_path / "report.md"
    report.write_text("design\n")
    actual = hashlib.sha256(b"design\n").hexdigest()
    assert digest_mismatch(report, actual) is None
    assert "differs from golden" in digest_mismatch(report, "0" * 64)
    assert "no report" in digest_mismatch(tmp_path / "missing.md", actual)


# -- wrapping and absent targets -----------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """``repro.fake_a`` defines work() and Thing; ``repro.fake_b`` binds
    work by name, as ``from repro.fake_a import work`` would."""
    fake_a = types.ModuleType("repro.fake_a")

    def work(scale, items):
        if scale < 0:
            raise ValueError("negative scale")
        return [scale * item for item in items]

    class Thing:
        def run(self, items):
            return fake_a.work(2, items)

    fake_a.work, fake_a.Thing = work, Thing
    fake_b = types.ModuleType("repro.fake_b")
    fake_b.work = work
    monkeypatch.setitem(sys.modules, "repro.fake_a", fake_a)
    monkeypatch.setitem(sys.modules, "repro.fake_b", fake_b)
    return fake_a, fake_b


def test_wrapping_patches_every_binding(fake_package):
    fake_a, fake_b = fake_package
    original = fake_a.work
    tracer = spans.Tracer()
    tracer.install([
        spans.Target("repro.fake_a.work", spans._sized_arg(1, "items",
                                                           "rows")),
        spans.Target("repro.fake_a.Thing.run"),
    ])
    assert tracer.absent == {}
    assert fake_b.work is fake_a.work is not original
    assert fake_a.Thing.run.__name__ == "run"
    assert fake_a.Thing().run([1, 2, 3]) == [2, 4, 6]
    assert fake_b.work(1, items=[5]) == [5]
    with pytest.raises(ValueError):
        fake_b.work(-1, [])

    view = spans.TraceView.from_chrome(tracer.chrome_trace(origin=0.0))
    assert [s.name for s in view.spans] == ["Thing.run", "work", "work",
                                           "work"]
    run_span, nested, direct, failed = view.spans
    assert nested.parent == run_span.id and direct.parent == -1
    assert nested.counters == {"rows": 3} and direct.counters == {"rows": 1}
    assert failed.counters == {} and failed.end >= failed.start


def test_absent_targets_are_recorded_not_raised(fake_package):
    tracer = spans.Tracer()
    tracer.install([
        spans.Target("repro.no_such_module.function"),
        spans.Target("repro.fake_a.Thing.no_such_method"),
        spans.Target("repro.fake_a.NoSuchClass.run"),
    ])
    assert set(tracer.absent) == {"function", "Thing.no_such_method",
                                  "NoSuchClass.run"}
    view = spans.TraceView([span(0, -1, spans.IMPORT_SPAN, 0.0, 1.0)])
    metrics = spans.layer_metrics(
        view, {"parallel_map": "removed", "Autotuner.save": "removed"},
        {"traced_wall_s": 1.0, "program_wall_s": 1.0,
         "untraced_wall_s": 1.0})
    for name in ("dispatch.calls", "dispatch.wait_s", "autotune.saves",
                 "autotune.s"):
        assert metrics[name] == {"value": 0.0, "unit": metrics[name]["unit"],
                                 "status": "absent"}
    assert metrics["startup.import_s"]["status"] == "ok"


def test_a_failing_counter_does_not_fail_the_call(fake_package):
    fake_a, _ = fake_package
    tracer = spans.Tracer()
    tracer.install([spans.Target(
        "repro.fake_a.work",
        lambda args, kwargs, result, before: {"x": 1 / 0})])
    assert fake_a.work(3, [1]) == [3]
    assert "ZeroDivisionError" in tracer.spans[0][6]["counter_error"]


# -- the benchmark definition and entry point ----------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    # phase1-trainer is runnable by hand but not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] + ["phase1-trainer"] == \
        list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in spans.LAYER_METRICS]
    assert {t.name for t in spans.TARGETS} >= {
        name for metric in spans.LAYER_METRICS for name in metric.spans
        if name != spans.IMPORT_SPAN}


def test_contract_line_reports_medians():
    end_to_end = {name: run.summarize([1.0, 2.0, 3.0, 4.0, 9.0], unit)
                  for name, unit in run.END_TO_END.items()}
    line = run.contract_line({"correct": True, "attempted": 7, "failed": 0,
                              "end_to_end": end_to_end}, trace=False)
    assert line["metrics"]["wall_s"] == {"value": 3.0, "unit": "s"}
    assert set(line["metrics"]) == set(run.END_TO_END)


# -- host-speed scaling --------------------------------------------------

def test_times_scale_by_the_calibrations_around_the_run():
    timed = run.Run("timed", True, wall_s=2.0, setup_s=0.5, cpu_s=1.8,
                    calibration_wall_s=2 * calibrate.REFERENCE_WALL_S,
                    calibration_cpu_s=3 * calibrate.REFERENCE_CPU_S)
    assert timed.scaled("wall_s") == pytest.approx(1.0)
    assert timed.scaled("setup_s") == pytest.approx(0.25)
    assert timed.scaled("cpu_s") == pytest.approx(0.6)


def test_quietest_picks_the_least_busy_cpus(monkeypatch):
    ticks = iter([{0: 100, 1: 100, 2: 100}, {0: 150, 1: 110, 2: 130}])
    monkeypatch.setattr(calibrate, "_busy_ticks", lambda: next(ticks))
    monkeypatch.setattr(calibrate.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    assert calibrate.quietest(None) == [0, 1, 2]
    assert calibrate.quietest(2, window_s=0.0) == [1, 2]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "bench-q8-w2", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
