"""Backward compatibility of checkpoint manifests and CLI handles.

The registry widened the scenario axis from an enum to id strings; an
old checkpoint directory written before that must keep loading, and its
``scenario`` field must resolve to the same enum handle (hence the same
cache keys and journals) it was written with.  New registry ids must
round-trip through the same manifest machinery.  Manifests that carry
fields of removed features (the array backend, concurrent bench cells)
must load and resume as if the fields were absent.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.airlearning.scenarios import Scenario, ScenarioSpec, scenario_ids
from repro.bench.runner import BENCH_MANIFEST_NAME, BenchManifest
from repro.cli import _restore_from_manifest, build_parser, main
from repro.core.checkpoint import MANIFEST_NAME, RunManifest
from repro.core.pipeline import AutoPilot
from repro.core.spec import TaskSpec
from repro.errors import CheckpointError
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


def _design_args(**overrides):
    args = argparse.Namespace(
        uav="nano", scenario="dense", sensor_fps=60.0, seed=0, budget=1,
        phase1_backend="surrogate", proposal_batch=1, fidelity="off",
        promotion_eta=0.5, workers=None)
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


def test_old_head_manifest_loads_and_restores_enum_handle(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(_OLD_HEAD_MANIFEST))
    manifest = RunManifest.load(tmp_path)
    assert manifest.scenario == "dense"

    args = _design_args()
    task = _restore_from_manifest(args, manifest)
    assert task.scenario is Scenario.DENSE
    assert task.platform.name == "Zhang et al. nano-UAV"
    assert args.seed == 7 and args.budget == 40


def test_registry_id_manifest_round_trips(tmp_path):
    from repro.airlearning.scenarios import resolve_scenario

    pilot = AutoPilot(seed=3)
    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("urban-canyon"))
    manifest = pilot._manifest_for(task, budget=9)
    assert manifest.scenario == "urban-canyon"
    manifest.save(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest

    args = _design_args()
    restored = _restore_from_manifest(args, loaded)
    assert isinstance(restored.scenario, ScenarioSpec)
    assert restored.scenario.value == "urban-canyon"


def test_manifest_with_unknown_scenario_id_fails_loudly(tmp_path):
    payload = dict(_OLD_HEAD_MANIFEST, scenario="no-such-place")
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    manifest = RunManifest.load(tmp_path)
    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown scenario"):
        _restore_from_manifest(_design_args(), manifest)


def test_checkpointed_run_with_registry_scenario_resumes(tmp_path):
    """A full pipeline checkpoint keyed by a registry id verifies on
    resume and replays to the identical selection."""
    from repro.airlearning.scenarios import resolve_scenario

    task = TaskSpec(platform=NANO_ZHANG,
                    scenario=resolve_scenario("corridor-narrow"))
    run_dir = tmp_path / "run"
    first = AutoPilot(seed=5).run(task, budget=6, checkpoint_dir=run_dir)
    resumed = AutoPilot(seed=5).run(task, budget=6, checkpoint_dir=run_dir,
                                    resume=True)
    assert (first.selected.candidate.design
            == resumed.selected.candidate.design)
    assert first.selected.num_missions == resumed.selected.num_missions

    # Resuming under a different scenario id must be refused.
    other = TaskSpec(platform=NANO_ZHANG,
                     scenario=resolve_scenario("corridor-wide"))
    with pytest.raises(CheckpointError, match="scenario"):
        AutoPilot(seed=5).run(other, budget=6, checkpoint_dir=run_dir,
                              resume=True)


#: Fields that earlier versions wrote and this one no longer has.
_REMOVED_FIELDS = {"array_backend": "threaded", "bench_parallel": 2}


@pytest.mark.parametrize("command, kill_at, manifest_cls, patterns", [
    (["design", "--uav", "nano", "--scenario", "low", "--budget", "15",
      "--seed", "3"], 35, RunManifest, [MANIFEST_NAME]),
    (["bench", "--tags", "smoke", "--platforms", "nano", "--budget", "6",
      "--seed", "3"], 40, BenchManifest,
     [BENCH_MANIFEST_NAME, f"cells/*/{MANIFEST_NAME}"]),
], ids=["run-manifest", "bench-manifest"])
def test_manifest_with_removed_fields_resumes_identically(
        tmp_path, capsys, command, kill_at, manifest_cls, patterns):
    assert main(command) == 0
    baseline = capsys.readouterr().out
    run_dir = tmp_path / "run"
    with pytest.raises(faults.SimulatedKill):
        with faults.active_faults(f"kill@checkpoint-write:{kill_at}"):
            main(command + ["--checkpoint-dir", str(run_dir)])
    capsys.readouterr()
    for pattern in patterns:
        paths = list(run_dir.glob(pattern))
        assert paths
        for path in paths:
            payload = json.loads(path.read_text())
            payload.update(_REMOVED_FIELDS)
            path.write_text(json.dumps(payload))
    manifest = manifest_cls.load(run_dir)
    assert not any(hasattr(manifest, name) for name in _REMOVED_FIELDS)

    assert main([command[0], "--resume", str(run_dir)]) == 0
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
