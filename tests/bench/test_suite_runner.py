"""Bench suite construction, runner resumability, and the CLI surface.

The load-bearing property is the acceptance criterion: a bench sweep
killed mid-run and resumed produces a byte-identical report to an
uninterrupted sweep, because every cell replays (or fast-forwards)
through the PR-4 checkpoint machinery under one shared pipeline.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    BenchManifest,
    BenchRunner,
    build_suite,
    render_bench_report,
)
from repro.cli import main
from repro.core.pipeline import AutoPilot
from repro.core.workers import shutdown_warm_pool
from repro.errors import CheckpointError, ConfigError
from repro.testing import faults

BENCH_ARGS = ["bench", "--tags", "smoke", "--platforms", "nano",
              "--budget", "6", "--seed", "3"]


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
        first = BenchRunner(AutoPilot(seed=3), budget=6).run(suite)
        second = BenchRunner(AutoPilot(seed=3), budget=6).run(suite)
        assert (render_bench_report(first.metrics)
                == render_bench_report(second.metrics))

    def test_shared_pipeline_reuses_phase2_across_platforms(self):
        suite = build_suite(ids=["dense"], platforms=["mini", "nano"])
        pilot = AutoPilot(seed=3)
        result = BenchRunner(pilot, budget=6).run(suite)
        assert len(result.metrics) == 2
        # One shared DSE run serves both platform classes of a scenario.
        assert len(pilot._phase2_cache) == 1

    def test_checkpoint_then_resume_is_identical(self, tmp_path):
        suite = build_suite(ids=["dense", "open-field"],
                            platforms=["nano"])
        fresh = BenchRunner(AutoPilot(seed=3), budget=6).run(suite)

        bench_dir = tmp_path / "bench"
        BenchRunner(AutoPilot(seed=3), budget=6,
                    checkpoint_dir=bench_dir).run(suite)
        resumed = BenchRunner(AutoPilot(seed=3), budget=6,
                              checkpoint_dir=bench_dir,
                              resume=True).run(suite)
        assert (render_bench_report(resumed.metrics)
                == render_bench_report(fresh.metrics))
        manifest = BenchManifest.load(bench_dir)
        assert set(manifest.cells.values()) == {"complete"}

    def test_resume_with_different_config_refused(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        bench_dir = tmp_path / "bench"
        BenchRunner(AutoPilot(seed=3), budget=6,
                    checkpoint_dir=bench_dir).run(suite)
        with pytest.raises(CheckpointError, match="budget"):
            BenchRunner(AutoPilot(seed=3), budget=7,
                        checkpoint_dir=bench_dir, resume=True).run(suite)

    def test_manifest_records_pool(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        bench_dir = tmp_path / "bench"
        try:
            BenchRunner(AutoPilot(seed=3, pool="warm"), budget=6,
                        checkpoint_dir=bench_dir).run(suite)
        finally:
            shutdown_warm_pool()
        assert BenchManifest.load(bench_dir).pool == "warm"

    def test_resume_under_different_pool_refused(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        bench_dir = tmp_path / "bench"
        BenchRunner(AutoPilot(seed=3, pool="cold"), budget=6,
                    checkpoint_dir=bench_dir).run(suite)
        with pytest.raises(CheckpointError, match="pool"):
            BenchRunner(AutoPilot(seed=3, pool="warm"), budget=6,
                        checkpoint_dir=bench_dir, resume=True).run(suite)

    def test_warm_pool_sweep_matches_oracle(self):
        suite = build_suite(ids=["dense", "low"], platforms=["nano"])
        oracle = BenchRunner(AutoPilot(seed=3), budget=6).run(suite)
        try:
            warm = BenchRunner(AutoPilot(seed=3, workers=2, pool="warm"),
                               budget=6).run(suite)
        finally:
            shutdown_warm_pool()
        assert (render_bench_report(warm.metrics)
                == render_bench_report(oracle.metrics))

    def test_resume_without_manifest_refused(self, tmp_path):
        suite = build_suite(ids=["dense"], platforms=["nano"])
        with pytest.raises(CheckpointError, match="no bench manifest"):
            BenchRunner(AutoPilot(seed=3), budget=6,
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
        # Simulated process death mid-sweep: some cells complete, one
        # is mid-phase, the rest were never started.
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults("kill@checkpoint-write:40"):
                main(BENCH_ARGS + ["--checkpoint-dir", str(bench_dir)])
        capsys.readouterr()
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("kill_at", [3, 5, 8])
    def test_gp_refit_every_survives_kill_and_resume(self, tmp_path,
                                                     capsys, kill_at):
        args = ["bench", "--scenarios", "dense", "--platforms", "nano",
                "--seed", "7", "--budget", "60", "--proposal-batch", "4",
                "--gp-refit-every", "8"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        bench_dir = tmp_path / "bench"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(bench_dir)])
        capsys.readouterr()
        assert main(["bench", "--resume", str(bench_dir)]) == 0
        assert capsys.readouterr().out == baseline
        assert BenchManifest.load(bench_dir).gp_refit_every == 8

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
