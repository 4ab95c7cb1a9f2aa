"""Tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.airlearning.scenarios import Scenario
from repro.cli import build_parser, main
from repro.core.checkpoint import EvaluationJournal, RunManifest
from repro.core.evalcache import reset_shared_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec, build_design_space
from repro.nn.template import enumerate_template_space
from repro.testing import faults
from repro.uav.platforms import NANO_ZHANG


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
                     ["bench", "--bench-parallel", "2"],
                     ["design", "--pool", "warm"],
                     ["sweep", "--pool", "cold"],
                     ["design", "--rollout-engine", "vec"],
                     ["bench", "--rollout-engine", "vec"],
                     ["compare", "--rollout-engine", "scalar"],
                     ["design", "--gp-refit-every", "8"],
                     ["bench", "--gp-refit-every", "8"],
                     ["compare", "--gp-refit-every", "8"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2


class TestCommands:
    def test_f1_command(self, capsys):
        assert main(["f1", "--uav", "nano", "--payload", "24"]) == 0
        out = capsys.readouterr().out
        assert "knee-point" in out
        assert "46" in out  # the calibrated nano knee

    @pytest.mark.parametrize("option, message", [
        (["--payload", "-5"], "compute_weight_g must be non-negative"),
        (["--sensor-fps", "0"], "sensor_fps must be positive"),
        (["--payload", "200"],
         "Zhang et al. nano-UAV cannot lift a 200 g compute payload"),
    ], ids=["payload", "sensor-fps", "payload-too-heavy"])
    def test_f1_rejects_invalid_values(self, capsys, option, message):
        assert main(["f1", "--uav", "nano"] + option) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--layers", "4", "--filters", "32"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "e2e-L4-F32" in out

    def test_sweep_profile_counts_every_design(self, capsys):
        assert main(["sweep", "--layers", "4", "--filters", "32",
                     "--profile"]) == 0
        table, profile = capsys.readouterr().out.split("## Profile")
        designs = re.findall(r"^\d+x\d+ ", table, flags=re.MULTILINE)
        sweep, = [line.split() for line in profile.splitlines()
                  if line.startswith("sweep ")]
        assert sweep[2] == str(len(designs)) != "0"

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


#: Runs the CLI with ``sys.argv[1:]`` in a fresh interpreter and prints,
#: as JSON, every module loaded by the time the command has returned.
LOADED_PROBE = """
import json
import sys
import repro.cli
status = repro.cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(status)
"""

#: Modules a default ``design`` run has no use for, each checked after
#: the whole run: SciPy and ``numpy.ma``; the bench and experiment
#: drivers; ``multiprocessing``/``concurrent.futures`` and the pool
#: itself, which only Phase 1's training pool imports; the checkpoint
#: layer, which only a checkpointing run imports, and ``logging``, which
#: only those two import; the Air Learning simulator and trainer stack,
#: which only the trainer backend calls; baselines, exporters, the
#: paper's tables, the alternate optimisers, the multi-fidelity screen
#: and its tier-0 estimators; fault injection.  A name covers the module
#: and everything below it.
DESIGN_UNUSED = (
    "scipy", "numpy.ma", "multiprocessing", "concurrent", "logging",
    "repro.core.parallel", "repro.core.checkpoint",
    "repro.bench", "repro.experiments", "repro.baselines", "repro.testing",
    *(f"repro.airlearning.{name}" for name in (
        "arena", "dynamics", "env", "evaluate", "policy", "render",
        "sensors", "trainer", "vecenv")),
    "repro.core.export", "repro.core.prior_work", "repro.core.taxonomy",
    "repro.nn.model_zoo",
    *(f"repro.optim.{name}" for name in (
        "annealing", "exhaustive", "fidelity", "genetic", "random_search",
        "rl")),
    "repro.scalesim.estimate", "repro.soc.estimate",
)


def loaded_modules(*argv, code=LOADED_PROBE):
    """The modules loaded by running ``code`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def under(modules, prefixes):
    """The modules that are, or lie below, any of ``prefixes``."""
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)]


class TestStartup:
    def test_design_loads_no_scipy_bench_or_experiments(self, tmp_path):
        report = tmp_path / "report.md"
        loaded = loaded_modules(
            "design", "--uav", "nano", "--scenario", "low", "--budget",
            "20", "--seed", "3", "--proposal-batch", "4",
            "--output", str(report))
        assert "AutoPilot design report" in report.read_text()
        assert under(loaded, DESIGN_UNUSED) == []
        assert len(under(loaded, ["repro"])) <= 52

    def test_bench_loads_only_the_table_formatter(self, tmp_path):
        report = tmp_path / "report.md"
        loaded = loaded_modules(
            "bench", "--tags", "smoke", "--platforms", "nano", "--budget",
            "12", "--checkpoint-dir", str(tmp_path / "run"),
            "--output", str(report))
        assert "Bench sweep" in report.read_text()
        assert under(loaded, ["repro.experiments"]) == [
            "repro.experiments", "repro.experiments.runner"]
        assert under(loaded, ["repro.spa"]) == []
        assert len(under(loaded, ["repro"])) <= 64

    def test_import_repro_loads_no_submodule(self):
        loaded = loaded_modules(code="import json, sys, repro; "
                                     "print(json.dumps(sorted(sys.modules)))")
        assert under(loaded, ["repro"]) == ["repro"]
        assert under(loaded, ["numpy"]) == []


#: Fixed-seed ``design`` runs that no perfbench workload pins, with the
#: sha256 of the report each writes: q=4 under the multi-fidelity
#: screen, whose pool also skips pruned points, and q=4 on another
#: platform and scenario.
GOLDEN_REPORTS = [
    pytest.param(
        ["--uav", "nano", "--scenario", "dense", "--seed", "7", "--budget",
         "40", "--proposal-batch", "4", "--fidelity", "on"],
        "01ec402d499c86c894a5d4b2414efa689b63023095bb14fc06e6acb8dc459eff",
        id="nano-dense-q4-fidelity"),
    pytest.param(
        ["--uav", "micro", "--scenario", "low", "--seed", "3", "--budget",
         "60", "--proposal-batch", "4"],
        "5d28ca2ae95500bed207dc91ec1e2b7e3b1680b494d6c0a99421f4f1ff6fba75",
        id="micro-low-q4"),
]


class TestGoldenReports:
    @pytest.mark.parametrize("options, digest", GOLDEN_REPORTS)
    def test_report_is_byte_identical(self, tmp_path, capsys, options,
                                      digest):
        report = tmp_path / "report.md"
        assert main(["design", *options, "--output", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


DESIGN_ARGS = ["design", "--uav", "nano", "--scenario", "low",
               "--budget", "15", "--seed", "3"]

#: A surrogate ``design`` run's checkpoint writes are its manifest at
#: the start (write 0), on entering Phase 2 (write 1) and at the end
#: (write 2).  Phases 2 and 3 write nothing of their own, so a kill at
#: the final write leaves what a kill anywhere in them leaves.
FINAL_MANIFEST_WRITE = 2

#: The manifest status each kill leaves, by the write it lands on.
KILLED_STATUS = {
    1: {"phase1": "running", "phase2": "pending", "phase3": "pending"},
    2: {"phase1": "complete", "phase2": "running", "phase3": "pending"},
}

#: Where the q=4 kills land: before the manifest entering Phase 2, and
#: before the final one.
GROUP_KILLS = [pytest.param(1, id="phase1-running"),
               pytest.param(FINAL_MANIFEST_WRITE, id="phase2-running")]

#: One non-default value of every option a checkpoint records.
NON_DEFAULT_OPTIONS = [
    ["--seed", "3"],
    ["--sensor-fps", "30"],
    ["--proposal-batch", "4"],
    ["--fidelity", "on", "--promotion-eta", "0.25"],
]

#: A design and a bench command, each with the checkpoint write to
#: kill it at: its (only) run's final manifest write, which in the
#: bench follows ``bench.json``.  Each leaves ``phase2: running``.
MID_PHASE2_KILLS = [
    (["design", "--uav", "nano", "--scenario", "low", "--budget", "20"],
     FINAL_MANIFEST_WRITE),
    (["bench", "--scenarios", "dense", "--platforms", "nano",
      "--budget", "20"], FINAL_MANIFEST_WRITE + 1),
]


def earlier_journals(seed):
    """The journals earlier versions wrote into a checkpointed
    ``design --uav nano --scenario dense --budget 24 --proposal-batch 4
    --fidelity on`` run with ``seed``, by path: the surrogate's Phase 1
    records, and Phase 2's assignments and promotion decisions.  Each
    value is the journal's kind and its records."""
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    result = AutoPilot(RunConfig(seed=seed, budget=24, proposal_batch=4,
                                 fidelity="on")).run(task)
    space = build_design_space()
    assignments = [evaluation.assignment
                   for evaluation in result.phase2.optimization.evaluations]
    keys = [tuple(space.key(a)) for a in assignments]
    trainings = [{"point": point, "scenario": "dense", "env_steps": 0,
                  "success": result.phase1.database.get(
                      point, task.scenario).success_rate}
                 for point in enumerate_template_space()]
    promotions = [{"keys": tuple(keys[i:i + 4]),
                   "promoted": (True,) * len(keys[i:i + 4])}
                  for i in range(12, len(keys), 4)]
    return {
        "phase1/trainings.jnl": ("phase1-trainings", trainings),
        "phase2/evaluations.jnl": (
            "phase2-evaluations", [{"assignment": a} for a in assignments]),
        "phase2/promotions.jnl": ("phase2-promotions", promotions),
    }


def killed_with_refit_cadence(tmp_path, capsys, command, kill_at, value):
    """A checkpoint of ``command`` killed at ``kill_at``, each of its
    manifests recording ``gp_refit_every`` as earlier versions did."""
    run_dir = tmp_path / "run"
    with pytest.raises(faults.SimulatedKill):
        with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
            main(command + ["--checkpoint-dir", str(run_dir)])
    capsys.readouterr()
    for path in run_dir.rglob("*.json"):
        payload = json.loads(path.read_text())
        payload["gp_refit_every"] = value
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return run_dir


class TestCheckpointCli:
    def test_checkpoint_dir_then_resume_round_trip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "AutoPilot design report" in first
        manifest = RunManifest.load(run_dir)
        assert manifest.status["phase3"] == "complete"
        # Resuming a completed run recomputes it and reproduces the
        # report verbatim -- seed, budget and task all come from the
        # manifest, not the command line.
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_interrupted_run_resumes_to_identical_report(self, tmp_path,
                                                         capsys):
        assert main(DESIGN_ARGS) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        # Kill the process (simulated) with Phase 2 running.
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(
                    f"kill@checkpoint-write:{FINAL_MANIFEST_WRITE}"):
                main(DESIGN_ARGS + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        assert (RunManifest.load(run_dir).status
                == KILLED_STATUS[FINAL_MANIFEST_WRITE])
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline

    def test_unfired_fault_rule_is_reported(self, tmp_path, capsys):
        """A ``REPRO_FAULTS`` kill past the run's last checkpoint write
        never fires: the run finishes as it would without the rule, and
        says so once on stderr."""
        reference = tmp_path / "reference.md"
        assert main(DESIGN_ARGS + ["--output", str(reference)]) == 0
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["REPRO_FAULTS"] = "kill@checkpoint-write:35"
        faulted = tmp_path / "faulted.md"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *DESIGN_ARGS,
             "--checkpoint-dir", str(tmp_path / "run"),
             "--output", str(faulted)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert [line for line in done.stderr.splitlines()
                if line.startswith("warning:")] == [
            "warning: REPRO_FAULTS rule kill@checkpoint-write:35 never "
            f"fired: the run made {FINAL_MANIFEST_WRITE + 1} checkpoint "
            "writes"]
        assert faulted.read_bytes() == reference.read_bytes()

    def test_every_unfired_rule_is_named(self, capsys, monkeypatch):
        """Without ``--checkpoint-dir`` a run makes no checkpoint write,
        so none of its ``checkpoint-write`` rules fires."""
        monkeypatch.setenv("REPRO_FAULTS", "kill@checkpoint-write:0, "
                                           "kill@checkpoint-write:4")
        assert main(DESIGN_ARGS) == 0
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")] == [
            f"warning: REPRO_FAULTS rule kill@checkpoint-write:{index} "
            "never fired: the run made 0 checkpoint writes"
            for index in (0, 4)]

    @pytest.mark.parametrize("command, kill_at, run", [
        (["design", "--uav", "nano"], FINAL_MANIFEST_WRITE, "."),
        (["bench", "--platforms", "nano"], FINAL_MANIFEST_WRITE + 1,
         "cells/dense__nano"),
    ], ids=["design", "bench"])
    def test_resume_ignores_the_journals_earlier_versions_wrote(
            self, tmp_path, capsys, command, kill_at, run):
        """A run directory in the earlier layout, or a bench cell's,
        resumes to the uninterrupted report, though its Phase 2
        journals name another seed's assignments (a resume that
        replayed them refused it), and leaves every journal byte for
        byte as it was."""
        scenario = "--scenario" if command[0] == "design" else "--scenarios"
        args = command + [scenario, "dense", "--seed", "7", "--budget", "24",
                          "--proposal-batch", "4", "--fidelity", "on"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        checkpoint_dir = tmp_path / "checkpoint"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(checkpoint_dir)])
        capsys.readouterr()
        run_dir = checkpoint_dir / run
        assert (RunManifest.load(run_dir).status
                == KILLED_STATUS[FINAL_MANIFEST_WRITE])
        journals = earlier_journals(seed=8)
        for name, (kind, records) in journals.items():
            with EvaluationJournal(run_dir / name, kind=kind) as journal:
                for record in records:
                    journal.append(record)
        written = {name: (run_dir / name).read_bytes() for name in journals}
        assert main([command[0], "--resume", str(checkpoint_dir)]) == 0
        assert capsys.readouterr().out == baseline
        assert {name: (run_dir / name).read_bytes()
                for name in written} == written

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

    @pytest.mark.parametrize("kill_at", GROUP_KILLS)
    def test_q4_groups_survive_kill_and_resume(self, tmp_path, capsys,
                                               kill_at):
        args = ["design", "--uav", "nano", "--scenario", "dense",
                "--seed", "7", "--budget", "60", "--proposal-batch", "4"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        assert RunManifest.load(run_dir).status == KILLED_STATUS[kill_at]
        # The resume command line names no pipeline option: the
        # manifest restores the group size.
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline
        assert RunManifest.load(run_dir).config.proposal_batch == 4

    @pytest.mark.parametrize("command, kill_at", MID_PHASE2_KILLS,
                             ids=["design", "bench"])
    @pytest.mark.parametrize("option", NON_DEFAULT_OPTIONS,
                             ids=lambda option: option[0].lstrip("-"))
    def test_option_survives_kill_and_resume(self, tmp_path, capsys,
                                             command, kill_at, option):
        args = command + option
        assert main(args) == 0
        baseline = capsys.readouterr().out
        run_dir = tmp_path / "run"
        with pytest.raises(faults.SimulatedKill):
            with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
                main(args + ["--checkpoint-dir", str(run_dir)])
        capsys.readouterr()
        cell = run_dir if command[0] == "design" else next(
            run_dir.glob("cells/*"))
        assert (RunManifest.load(cell).status
                == KILLED_STATUS[FINAL_MANIFEST_WRITE])
        # The resume command line names no option: the manifest
        # restores every one of them.
        assert main([command[0], "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline
        name = "manifest.json" if command[0] == "design" else "bench.json"
        recorded = json.loads((run_dir / name).read_text())
        for flag, value in zip(option[::2], option[1::2]):
            key = flag.lstrip("-").replace("-", "_")
            assert recorded[key] == type(recorded[key])(value)

    @pytest.mark.parametrize("command, kill_at", MID_PHASE2_KILLS,
                             ids=["design", "bench"])
    def test_recorded_refit_cadence_of_one_resumes_identically(
            self, tmp_path, capsys, command, kill_at):
        """Every default run of earlier versions recorded
        ``gp_refit_every: 1``, the one GP path this version has."""
        assert main(command) == 0
        baseline = capsys.readouterr().out
        run_dir = killed_with_refit_cadence(tmp_path, capsys, command,
                                            kill_at, 1)
        assert main([command[0], "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("command, kill_at", MID_PHASE2_KILLS,
                             ids=["design", "bench"])
    def test_recorded_refit_cadence_above_one_is_refused(
            self, tmp_path, capsys, command, kill_at):
        run_dir = killed_with_refit_cadence(tmp_path, capsys, command,
                                            kill_at, 8)
        assert main([command[0], "--resume", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "records gp_refit_every=8" in captured.err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_trainer_backend_resumes_to_identical_report(self, tmp_path,
                                                         capsys, workers):
        args = ["design", "--uav", "nano", "--scenario", "dense",
                "--seed", "3", "--budget", "8", "--workers", workers,
                "--phase1-backend", "trainer", "--cem-population", "4",
                "--cem-iterations", "1", "--cem-episodes", "1"]
        run_dir = tmp_path / "run"
        # Each run starts from an empty report cache, as a separate
        # process would.
        reset_shared_cache()
        assert main(args + ["--checkpoint-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        # Only the trainer's Phase 1 keeps progress beside the manifest.
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "manifest.json", "phase1"]
        reset_shared_cache()
        assert main(["design", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first
        assert RunManifest.load(run_dir).config.trainer == {
            "population_size": 4, "elite_count": 2,
            "episodes_per_candidate": 1, "iterations": 1,
            "initial_std": 0.5}


#: Options that ``RunConfig`` rejects, and the error each prints.
INVALID_OPTIONS = [
    (["--budget", "0"], "budget must be positive, got 0"),
    (["--budget", "-3"], "budget must be positive, got -3"),
    (["--proposal-batch", "0"], "proposal_batch must be at least 1, got 0"),
    (["--promotion-eta", "0"], "promotion_eta must be in (0, 1], got 0.0"),
    (["--sensor-fps", "0"], "sensor_fps must be positive"),
]


class TestInvalidConfig:
    @pytest.mark.parametrize("command", [
        ["design", "--uav", "nano", "--scenario", "low"],
        ["bench", "--scenarios", "dense", "--platforms", "nano"],
    ], ids=["design", "bench"])
    @pytest.mark.parametrize("option, message", INVALID_OPTIONS,
                             ids=[f"{o[0].lstrip('-')}={o[1]}"
                                  for o, _ in INVALID_OPTIONS])
    def test_rejected_before_any_work(self, tmp_path, capsys, command,
                                      option, message):
        run_dir = tmp_path / "run"
        assert main(command + option
                    + ["--checkpoint-dir", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize("command", [
        ["design", "--uav", "nano", "--scenario", "low"],
        ["bench", "--scenarios", "dense", "--platforms", "nano"],
    ], ids=["design", "bench"])
    def test_bad_fault_spec_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("REPRO_FAULTS", "kill@checkpoint-write:1x2")
        run_dir = tmp_path / "run"
        assert main(command + ["--checkpoint-dir", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: bad fault index in rule "
                                "'kill@checkpoint-write:1x2'\n")
        assert captured.out == ""
        assert not run_dir.exists()
