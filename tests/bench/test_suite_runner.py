"""Bench suite construction, runner resumability, and the CLI surface.

The load-bearing property is the acceptance criterion: a bench sweep
killed mid-run and resumed produces a byte-identical report to an
uninterrupted sweep, because every cell replays (or fast-forwards)
through the run checkpoint machinery under one shared pipeline.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.bench import (
    BenchManifest,
    BenchRunner,
    build_suite,
    render_bench_report,
)
from repro.cli import main
from repro.core.checkpoint import RunManifest
from repro.core.evalcache import reset_shared_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig
from repro.errors import CheckpointError, ConfigError
from repro.testing import faults

BENCH_ARGS = ["bench", "--tags", "smoke", "--platforms", "nano",
              "--budget", "6", "--seed", "3"]
CONFIG = RunConfig(seed=3, budget=6)

#: A surrogate sweep's checkpoint writes start with ``bench.json``
#: (write 0), then the first cell's manifest at its start (1), on
#: entering Phase 2 (2) and at its end (3).  A kill at write 3 leaves
#: the first cell with ``phase2: running`` and no other cell started.
FIRST_CELL_FINAL_WRITE = 3

#: The first cell's manifest status each kill leaves, by the write it
#: lands on.
KILLED_STATUS = {
    2: {"phase1": "running", "phase2": "pending", "phase3": "pending"},
    3: {"phase1": "complete", "phase2": "running", "phase3": "pending"},
}

#: Where the q=4 kills land (see ``tests/test_cli.py``'s
#: ``GROUP_KILLS``): before the cell's manifest entering Phase 2, and
#: before its final one.
GROUP_KILLS = [pytest.param(2, id="phase1-running"),
               pytest.param(FIRST_CELL_FINAL_WRITE, id="phase2-running")]


def profile_counts(out):
    """``(cell, phase, evaluations, hit rate)`` per row of the ``--profile``
    tables of a bench report, leaving out the timing columns."""
    rows, cell = [], None
    for line in out.splitlines():
        if line.startswith("--- "):
            cell = line.strip("- ")
        elif cell is not None and re.match(r"(phase\d|total) ", line):
            rows.append((cell, line[:18].strip(), line[28:35].strip(),
                         line[-9:].strip()))
    return rows


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


class TestSuite:
    def test_smoke_nano_suite(self):
        suite = build_suite(tags=["smoke"], platforms=["nano"])
        assert [c.cell_id for c in suite.cells()] == [
            "low__nano", "dense__nano", "corridor-narrow__nano",
            "urban-canyon__nano", "open-field__nano"]

    def test_platform_axis_prunes_cells(self):
        suite = build_suite(ids=["forest-heavy"])
        # forest-heavy targets mini/micro only; nano must be pruned.
        assert {c.platform_class for c in suite.cells()} == {
            "mini", "micro"}

    def test_platform_order_and_dedup(self):
        suite = build_suite(ids=["dense"],
                            platforms=["nano", "mini", "nano"])
        assert suite.platforms == ("mini", "nano")

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigError, match="unknown platform"):
            build_suite(platforms=["jumbo"])

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError, match="selected no"):
            build_suite(ids=["zzz-*"])

    def test_variant_cell_builds_variant_platform(self):
        suite = build_suite(ids=["dense-low-battery"], platforms=["nano"])
        (cell,) = suite.cells()
        task = cell.task()
        assert task.platform.name == (
            "Zhang et al. nano-UAV (battery x0.5)")
        base = build_suite(ids=["dense"], platforms=["nano"]) \
            .cells()[0].task().platform
        assert task.platform.battery_capacity_mah == pytest.approx(
            0.5 * base.battery_capacity_mah)

    def test_legacy_cell_platform_untouched(self):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        (cell,) = suite.cells()
        task = cell.task()
        assert task.platform.name == "Zhang et al. nano-UAV"


class TestRunner:
    def test_sweep_is_deterministic_across_pipelines(self):
        suite = build_suite(ids=["dense", "corridor-narrow"],
                            platforms=["nano"])
        first = BenchRunner(AutoPilot(CONFIG)).run(suite)
        second = BenchRunner(AutoPilot(CONFIG)).run(suite)
        assert (render_bench_report(first.metrics)
                == render_bench_report(second.metrics))

    def test_shared_pipeline_reuses_phase2_across_platforms(self):
        suite = build_suite(ids=["dense"], platforms=["mini", "nano"])
        pilot = AutoPilot(CONFIG)
        result = BenchRunner(pilot).run(suite)
        assert len(result.metrics) == 2
        # One shared DSE run serves both platform classes of a scenario.
        assert len(pilot._phase2_cache) == 1

    def test_checkpoint_then_resume_is_identical(self, tmp_path):
        suite = build_suite(ids=["dense", "open-field"],
                            platforms=["nano"])
        fresh = BenchRunner(AutoPilot(CONFIG)).run(suite)

        bench_dir = tmp_path / "bench"
        BenchRunner(AutoPilot(CONFIG),
                    checkpoint_dir=bench_dir).run(suite)
        resumed = BenchRunner(AutoPilot(CONFIG),
                              checkpoint_dir=bench_dir,
                              resume=True).run(suite)
        assert (render_bench_report(resumed.metrics)
                == render_bench_report(fresh.metrics))
        assert BenchManifest.load(bench_dir).suite() == suite
        for cell in suite.cells():
            manifest = RunManifest.load(bench_dir / "cells" / cell.cell_id)
            assert set(manifest.status.values()) == {"complete"}

    #: Each sweep is killed at its second cell's final manifest write,
    #: after ``bench.json`` (write 0) and the first cell's three.  A
    #: second cell served from the first one's Phase 2 skips the write
    #: entering Phase 2, so it dies one write earlier, still recording
    #: ``phase1: running``.
    @pytest.mark.parametrize("ids, platforms, kill_at, killed_status", [
        pytest.param(["dense", "open-field"], ["nano"], 6,
                     {"phase1": "complete", "phase2": "running",
                      "phase3": "pending"}, id="own-phase2"),
        pytest.param(["dense"], ["mini", "nano"], 5,
                     {"phase1": "running", "phase2": "pending",
                      "phase3": "pending"}, id="shared-phase2"),
    ])
    def test_kill_in_a_later_cell_resumes_identically(
            self, tmp_path, ids, platforms, kill_at, killed_status):
        """A sweep killed in its second cell resumes to the
        uninterrupted sweep's report: the finished first cell runs
        again, rebuilding the caches the second reads, its Phase 2
        included when both cells share one."""
        suite = build_suite(ids=ids, platforms=platforms)
        reset_shared_cache()
        fresh = BenchRunner(AutoPilot(CONFIG)).run(suite)

        bench_dir = tmp_path / "bench"
        reset_shared_cache()
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                BenchRunner(AutoPilot(CONFIG),
                            checkpoint_dir=bench_dir).run(suite)
        first, second = (bench_dir / "cells" / cell.cell_id
                         for cell in suite.cells())
        assert set(RunManifest.load(first).status.values()) == {"complete"}
        assert RunManifest.load(second).status == killed_status

        reset_shared_cache()
        resumed = BenchRunner(AutoPilot(CONFIG), checkpoint_dir=bench_dir,
                              resume=True).run(suite)
        assert (render_bench_report(resumed.metrics)
                == render_bench_report(fresh.metrics))
        for cell_dir in (first, second):
            manifest = RunManifest.load(cell_dir)
            assert set(manifest.status.values()) == {"complete"}

    def test_resume_with_different_config_refused(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        bench_dir = tmp_path / "bench"
        BenchRunner(AutoPilot(CONFIG),
                    checkpoint_dir=bench_dir).run(suite)
        with pytest.raises(CheckpointError, match="budget"):
            BenchRunner(AutoPilot(replace(CONFIG, budget=7)),
                        checkpoint_dir=bench_dir, resume=True).run(suite)

    def test_resume_without_manifest_refused(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        with pytest.raises(CheckpointError, match="no bench manifest"):
            BenchRunner(AutoPilot(CONFIG),
                        checkpoint_dir=tmp_path / "nowhere",
                        resume=True).run(suite)


class TestBenchCli:
    def test_bench_smoke_runs_and_reports(self, capsys):
        assert main(BENCH_ARGS) == 0
        out = capsys.readouterr().out
        assert "Bench sweep: 5 cells" in out
        for scenario_id in ("low", "dense", "corridor-narrow",
                            "urban-canyon", "open-field"):
            assert scenario_id in out

    def test_scenario_globs_and_tags_compose(self, capsys):
        assert main(["bench", "--tags", "windy", "--scenarios", "urban-*",
                     "--platforms", "nano", "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "urban-windy" in out and "urban-night" in out
        assert "corridor-windy" not in out

    def test_unknown_tag_is_a_clean_error(self, capsys):
        assert main(["bench", "--tags", "smokey"]) == 2
        assert "unknown scenario tags" in capsys.readouterr().err

    def test_kill_and_resume_reports_identically(self, tmp_path, capsys):
        assert main(BENCH_ARGS) == 0
        baseline = capsys.readouterr().out

        bench_dir = tmp_path / "bench"
        # Simulated process death mid-sweep: the first cell has not
        # finished, and the other four were never started.
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(
                    f"kill@checkpoint-write:{FIRST_CELL_FINAL_WRITE}"):
                main(BENCH_ARGS + ["--checkpoint-dir", str(bench_dir)])
        capsys.readouterr()
        (cell,) = (bench_dir / "cells").iterdir()
        assert (RunManifest.load(cell).status
                == KILLED_STATUS[FIRST_CELL_FINAL_WRITE])
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == baseline

    def test_kill_and_resume_profiles_identically(self, tmp_path, capsys):
        """A resumed sweep counts the evaluations and cache hits an
        uninterrupted one does: it recomputes every cell through the
        shared cache, so each cell sees the same cache contents."""
        args = BENCH_ARGS + ["--profile"]
        reset_shared_cache()
        assert main(args) == 0
        baseline = profile_counts(capsys.readouterr().out)
        assert any(row[1] == "phase2" and row[3] == "100.0%"
                   for row in baseline)

        bench_dir = tmp_path / "bench"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(
                    f"kill@checkpoint-write:{FIRST_CELL_FINAL_WRITE}"):
                main(args + ["--checkpoint-dir", str(bench_dir)])
        capsys.readouterr()
        reset_shared_cache()
        assert main(["bench", "--resume", str(bench_dir), "--profile"]) == 0
        assert profile_counts(capsys.readouterr().out) == baseline

    @pytest.mark.parametrize("kill_at", GROUP_KILLS)
    def test_q4_groups_survive_kill_and_resume(self, tmp_path, capsys,
                                               kill_at):
        args = ["bench", "--scenarios", "dense", "--platforms", "nano",
                "--seed", "7", "--budget", "60", "--proposal-batch", "4"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        bench_dir = tmp_path / "bench"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(bench_dir)])
        capsys.readouterr()
        cell = bench_dir / "cells" / "dense__nano"
        assert RunManifest.load(cell).status == KILLED_STATUS[kill_at]
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == baseline
        assert BenchManifest.load(bench_dir).config.proposal_batch == 4

    def test_resume_missing_manifest_is_a_clean_error(self, tmp_path,
                                                      capsys):
        assert main(["bench", "--resume", str(tmp_path / "nowhere")]) == 2
        captured = capsys.readouterr()
        assert "no bench manifest found" in captured.err
        assert captured.out == ""

    def test_checkpoint_dir_and_resume_are_exclusive(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--checkpoint-dir", "a",
                                       "--resume", "b"])

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "bench.txt"
        assert main(["bench", "--scenarios", "dense", "--platforms",
                     "nano", "--budget", "4", "--output",
                     str(out_file)]) == 0
        assert "report written to" in capsys.readouterr().out
        assert "dense" in out_file.read_text()
