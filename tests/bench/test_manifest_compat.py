"""Backward compatibility of checkpoint manifests and CLI handles.

The registry widened the scenario axis from an enum to id strings; an
old checkpoint directory written before that must keep loading, and its
``scenario`` field must resolve to the same enum handle (hence the same
cache keys and Phase 1 artefacts) it was written with.  New registry ids must
round-trip through the same manifest machinery.  Manifests that carry
fields of removed features (the array backend, concurrent bench cells,
the pool mode, the trainer's rollout engine, the bench manifest's
per-cell status map) must load and resume as if the fields were absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest

from repro.airlearning.scenarios import Scenario, ScenarioSpec, scenario_ids
from repro.bench.runner import BENCH_MANIFEST_NAME, BenchManifest
from repro.cli import build_parser, main
from repro.core.checkpoint import MANIFEST_NAME, RunManifest
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.errors import CheckpointError, ConfigError
from repro.testing import faults
from repro.uav.platforms import NANO_ZHANG

# The exact manifest JSON shape the pre-registry code wrote (schema 1,
# legacy enum value in `scenario`).  Loading this file must keep
# working forever -- users have such directories on disk.
_OLD_HEAD_MANIFEST = {
    "uav": "Zhang et al. nano-UAV",
    "scenario": "dense",
    "seed": 7,
    "budget": 40,
    "sensor_fps": 60.0,
    "frontend_backend": "surrogate",
    "trainer": None,
    "proposal_batch": 1,
    "fidelity": "off",
    "promotion_eta": 0.5,
    "array_backend": "numpy",
    "status": {"phase1": "complete", "phase2": "running",
               "phase3": "pending"},
    "phase2_evaluations": 12,
    "schema": 1,
}


def test_old_head_manifest_loads_and_restores_enum_handle(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(_OLD_HEAD_MANIFEST))
    manifest = RunManifest.load(tmp_path)
    assert manifest.scenario == "dense"

    task = manifest.task()
    assert task.scenario is Scenario.DENSE
    assert task.platform.name == "Zhang et al. nano-UAV"
    assert manifest.config == RunConfig(seed=7, budget=40)


def test_registry_id_manifest_round_trips(tmp_path):
    from repro.airlearning.scenarios import resolve_scenario

    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("urban-canyon"))
    manifest = RunManifest.for_task(task, RunConfig(seed=3, budget=9))
    assert manifest.scenario == "urban-canyon"
    manifest.save(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest

    restored = loaded.task()
    assert isinstance(restored.scenario, ScenarioSpec)
    assert restored.scenario.value == "urban-canyon"


def test_manifest_with_unknown_scenario_id_fails_loudly(tmp_path, capsys):
    payload = dict(_OLD_HEAD_MANIFEST, scenario="no-such-place")
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    manifest = RunManifest.load(tmp_path)
    with pytest.raises(ConfigError, match="unknown scenario"):
        manifest.task()
    assert main(["design", "--resume", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_checkpointed_run_with_registry_scenario_resumes(tmp_path):
    """A full pipeline checkpoint keyed by a registry id verifies on
    resume and recomputes the identical selection."""
    from repro.airlearning.scenarios import resolve_scenario

    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("corridor-narrow"))
    run_dir = tmp_path / "run"
    config = RunConfig(seed=5, budget=6)
    first = AutoPilot(config).run(task, checkpoint_dir=run_dir)
    resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                    resume=True)
    assert (first.selected.candidate.design
            == resumed.selected.candidate.design)
    assert first.selected.num_missions == resumed.selected.num_missions

    # Resuming under a different scenario id must be refused.
    other = TaskSpec(platform=NANO_ZHANG,
                     scenario=resolve_scenario("corridor-wide"))
    with pytest.raises(CheckpointError, match="scenario"):
        AutoPilot(config).run(other, checkpoint_dir=run_dir, resume=True)


#: Fields that earlier versions wrote and this one no longer has.
_REMOVED_FIELDS = {"array_backend": "threaded", "bench_parallel": 2,
                   "pool": "warm"}
#: ... and, in the bench manifest, the per-cell status map, as it read
#: while the first smoke cell ran.
_REMOVED_BENCH_FIELDS = {**_REMOVED_FIELDS, "cells": {
    "low__nano": "running", "dense__nano": "pending",
    "corridor-narrow__nano": "pending", "urban-canyon__nano": "pending",
    "open-field__nano": "pending"}}


@pytest.mark.parametrize(
    "command, kill_at, manifest_cls, removed, patterns", [
        # Killed before the run's final manifest write (its third, after
        # those at the start and on entering Phase 2).
        (["design", "--uav", "nano", "--scenario", "low", "--budget", "15",
          "--seed", "3"], 2, RunManifest, _REMOVED_FIELDS,
         [MANIFEST_NAME]),
        # bench.json comes first; the first cell has not written its
        # final manifest.
        (["bench", "--tags", "smoke", "--platforms", "nano", "--budget",
          "6", "--seed", "3"], 3, BenchManifest, _REMOVED_BENCH_FIELDS,
         [BENCH_MANIFEST_NAME, f"cells/*/{MANIFEST_NAME}"]),
    ], ids=["run-manifest", "bench-manifest"])
def test_manifest_with_removed_fields_resumes_identically(
        tmp_path, capsys, command, kill_at, manifest_cls, removed,
        patterns):
    assert main(command) == 0
    baseline = capsys.readouterr().out
    run_dir = tmp_path / "run"
    with pytest.raises(faults.SimulatedKill):
        with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
            main(command + ["--checkpoint-dir", str(run_dir)])
    capsys.readouterr()
    (killed,) = (path.parent for path in run_dir.glob(patterns[-1]))
    assert RunManifest.load(killed).status == {
        "phase1": "complete", "phase2": "running", "phase3": "pending"}
    for pattern in patterns:
        paths = list(run_dir.glob(pattern))
        assert paths
        for path in paths:
            payload = json.loads(path.read_text())
            payload.update(removed)
            path.write_text(json.dumps(payload))
    manifest = manifest_cls.load(run_dir)
    assert not any(hasattr(manifest, name) for name in removed)

    assert main([command[0], "--resume", str(run_dir)]) == 0
    assert capsys.readouterr().out == baseline


#: The trainer settings earlier versions recorded in both manifests for
#: ``_TRAINER_BENCH``: they named the rollout engine, which no longer
#: shapes a run's identity.
_TRAINER_SETTINGS_WITH_ENGINE = {
    "elite_count": 2, "engine": "vec", "episodes_per_candidate": 1,
    "initial_std": 0.5, "iterations": 1, "population_size": 4}
_TRAINER_BENCH = ["bench", "--scenarios", "dense", "--platforms", "nano",
                  "--budget", "6", "--seed", "3", "--phase1-backend",
                  "trainer", "--cem-population", "4", "--cem-iterations",
                  "1", "--cem-episodes", "1"]


@pytest.fixture(scope="module")
def trainer_bench(tmp_path_factory):
    """A completed checkpointed trainer-backend bench and its output.

    Its one cell's directory is also a complete run checkpoint, as
    ``design --checkpoint-dir`` writes one.
    """
    run_dir = tmp_path_factory.mktemp("trainer-bench")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(_TRAINER_BENCH + ["--checkpoint-dir", str(run_dir)]) == 0
    return run_dir, out.getvalue()


def _record_the_engine(run_dir, patterns):
    """Rewrite the manifests' trainer settings as earlier versions did."""
    for pattern in patterns:
        paths = list(run_dir.glob(pattern))
        assert paths
        for path in paths:
            payload = json.loads(path.read_text())
            payload["trainer"] = _TRAINER_SETTINGS_WITH_ENGINE
            path.write_text(json.dumps(payload))


def _settings_without_the_engine():
    return {key: value for key, value in _TRAINER_SETTINGS_WITH_ENGINE.items()
            if key != "engine"}


def test_trainer_bench_manifests_naming_the_engine_resume_identically(
        trainer_bench, tmp_path, capsys):
    source, baseline = trainer_bench
    run_dir = shutil.copytree(source, tmp_path / "sweep")
    _record_the_engine(run_dir,
                       [BENCH_MANIFEST_NAME, f"cells/*/{MANIFEST_NAME}"])
    assert (BenchManifest.load(run_dir).config.trainer
            == _settings_without_the_engine())
    assert main(["bench", "--resume", str(run_dir)]) == 0
    assert capsys.readouterr().out == baseline


def test_trainer_run_manifest_naming_the_engine_resumes_identically(
        trainer_bench, tmp_path, capsys):
    cell = trainer_bench[0] / "cells" / "dense__nano"
    as_written = shutil.copytree(cell, tmp_path / "as-written")
    assert main(["design", "--resume", str(as_written)]) == 0
    baseline = capsys.readouterr().out
    run_dir = shutil.copytree(cell, tmp_path / "run")
    _record_the_engine(run_dir, [MANIFEST_NAME])
    assert (RunManifest.load(run_dir).config.trainer
            == _settings_without_the_engine())
    assert main(["design", "--resume", str(run_dir)]) == 0
    assert capsys.readouterr().out == baseline


class TestParserScenarioChoices:
    def test_parser_accepts_every_registry_id(self):
        parser = build_parser()
        for scenario_id in scenario_ids():
            args = parser.parse_args(
                ["design", "--scenario", scenario_id, "--budget", "1"])
            assert args.scenario == scenario_id

    def test_parser_rejects_unknown_scenario(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["design", "--scenario", "not-a-scenario"])
        assert "invalid choice" in capsys.readouterr().err

    def test_legacy_default_unchanged(self):
        args = build_parser().parse_args(["design"])
        assert args.scenario == "dense"
