"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.checkpoint import RunManifest
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design"])
        assert args.uav == "nano"
        assert args.scenario == "dense"
        assert args.budget == 100
        assert args.checkpoint_dir is None
        assert args.resume is None

    def test_rejects_unknown_uav(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--uav", "jumbo"])

    def test_checkpoint_dir_and_resume_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--checkpoint-dir", "a",
                                       "--resume", "b"])

    def test_sweep_validates_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--layers", "42"])

    def test_removed_flags_are_rejected(self):
        for argv in (["design", "--backend", "numpy"],
                     ["bench", "--bench-parallel", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestCommands:
    def test_f1_command(self, capsys):
        assert main(["f1", "--uav", "nano", "--payload", "24"]) == 0
        out = capsys.readouterr().out
        assert "knee-point" in out
        assert "46" in out  # the calibrated nano knee

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--layers", "4", "--filters", "32"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "e2e-L4-F32" in out

    def test_design_command_small_budget(self, capsys):
        assert main(["design", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "AutoPilot design report" in out
        assert "Missions per charge" in out

    def test_design_writes_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["design", "--uav", "micro", "--scenario", "low",
                     "--budget", "15", "--seed", "3",
                     "--output", str(path)]) == 0
        assert path.exists()
        assert "AutoPilot design report" in path.read_text()

    def test_compare_command(self, capsys):
        assert main(["compare", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Jetson TX2" in out
        assert "PULP-DroNet" in out
        assert "AutoPilot" in out

    def test_design_report_names_the_backend(self, capsys):
        assert main(["design", "--uav", "nano", "--scenario", "low",
                     "--budget", "15", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("- Array backend: numpy [exact (bit-identical to the "
                "NumPy oracle)]") in lines


DESIGN_ARGS = ["design", "--uav", "nano", "--scenario", "low",
               "--budget", "15", "--seed", "3"]


class TestCheckpointCli:
    def test_checkpoint_dir_then_resume_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "AutoPilot design report" in first
        manifest = RunManifest.load(run_dir)
        assert manifest.status["phase3"] == "complete"
        # Resuming a completed run replays the journals and reproduces
        # the report verbatim -- seed, budget and task all come from
        # the manifest, not the command line.
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_interrupted_run_resumes_to_identical_report(self, tmp_path,
                                                         capsys):
        assert main(DESIGN_ARGS) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        # Kill the process (simulated) mid-phase-2: after the initial
        # manifest writes and the phase 1 journal, a handful of phase 2
        # evaluations have been journalled when write #35 dies.
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults("kill@checkpoint-write:35"):
                main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline

    def test_resume_missing_manifest_is_a_clean_error(self, tmp_path,
                                                      capsys):
        assert main(["design", "--resume", str(tmp_path / "nowhere")]) == 2
        captured = capsys.readouterr()
        assert "no run manifest found" in captured.err
        assert captured.out == ""

    def test_resume_corrupt_manifest_is_a_clean_error(self, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("{not json")
        assert main(["design", "--resume", str(run_dir)]) == 2
        assert "corrupt run manifest" in capsys.readouterr().err

    def test_resume_ignores_conflicting_command_line_args(self, tmp_path,
                                                          capsys):
        run_dir = tmp_path / "run"
        assert main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        # Different --seed/--budget on the resume command line are
        # overridden by the recorded manifest.
        assert main(["design", "--resume", str(run_dir),
                     "--seed", "99", "--budget", "40"]) == 0
        assert capsys.readouterr().out == first
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["budget"] == 15

    @pytest.mark.parametrize("kill_at", [3, 5, 8])
    def test_gp_refit_every_survives_kill_and_resume(self, tmp_path,
                                                     capsys, kill_at):
        args = ["design", "--uav", "nano", "--scenario", "dense",
                "--seed", "7", "--budget", "60", "--proposal-batch", "4",
                "--gp-refit-every", "8"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        # The resume command line names no pipeline option: the
        # manifest restores the refit cadence.
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline
        assert RunManifest.load(run_dir).gp_refit_every == 8
