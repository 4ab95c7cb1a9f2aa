"""Crash/resume tests for the checkpointing runtime.

The central invariant: a run that is killed between checkpoint writes
and then resumed produces results *bit-identical* to an uninterrupted
run -- for the CEM trainer, the trainer's Phase 1 sweep and the full
three-phase pipeline, whose Phase 2 a resume recomputes.
"""

import json
import pickle
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.airlearning.env import NavigationEnv
from repro.airlearning.scenarios import Scenario
from repro.airlearning.surrogate import SuccessRateSurrogate
from repro.airlearning.trainer import CemTrainer
from repro.bench import BenchManifest, BenchRunner, build_suite
from repro.core import checkpoint as checkpoint_module
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    EvaluationJournal,
    RunCheckpoint,
    RunManifest,
    atomic_write_json,
    atomic_write_pickle,
    load_pickle,
)
from repro.core.evalcache import reset_shared_cache
from repro.core.phase1 import FrontEnd
from repro.core.phase2 import MultiObjectiveDse
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec, build_design_space
from repro.errors import CheckpointError, ConfigError
from repro.nn.template import PolicyHyperparams, enumerate_template_space
from repro.perf import span
from repro.soc import dssoc
from repro.testing import faults
from repro.uav.platforms import NANO_ZHANG


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_json_round_trip_and_no_temp_left(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert list(tmp_path.iterdir()) == [path]

    def test_pickle_round_trip(self, tmp_path):
        path = tmp_path / "s.pkl"
        atomic_write_pickle(path, {"x": np.arange(3)})
        loaded = load_pickle(path)
        np.testing.assert_array_equal(loaded["x"], np.arange(3))

    def test_kill_fault_fires_before_write(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_json(path, {"a": 1})
        with faults.active_faults("kill@checkpoint-write:0"):
            with pytest.raises(faults.SimulatedKill):
                atomic_write_json(path, {"a": 2})
        # The kill landed before the write: the old content survives.
        assert json.loads(path.read_text()) == {"a": 1}

    def test_corrupt_pickle_is_quarantined(self, tmp_path):
        path = tmp_path / "s.pkl"
        path.write_bytes(b"not a pickle")
        assert load_pickle(path) is None
        assert not path.exists()
        assert path.with_name("s.pkl.corrupt").exists()


class TestRunManifest:
    def manifest(self):
        return RunManifest(uav="Zhang et al. nano-UAV", scenario="dense",
                           sensor_fps=60.0,
                           config=RunConfig(seed=7, budget=40))

    def test_save_load_round_trip(self, tmp_path):
        manifest = self.manifest()
        manifest.status["phase1"] = "complete"
        manifest.save(tmp_path)
        loaded = RunManifest.load(tmp_path)
        assert loaded == manifest

    def test_missing_manifest_is_a_distinct_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no run manifest found"):
            RunManifest.load(tmp_path)

    def test_corrupt_manifest_is_a_distinct_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt run manifest"):
            RunManifest.load(tmp_path)

    def test_wrong_schema_rejected(self, tmp_path):
        payload = {"uav": "x", "scenario": "dense", "seed": 0, "budget": 1,
                   "schema": CHECKPOINT_SCHEMA_VERSION + 1}
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="schema"):
            RunManifest.load(tmp_path)

    def test_missing_required_field_rejected(self, tmp_path):
        payload = {"uav": "x", "schema": CHECKPOINT_SCHEMA_VERSION}
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="corrupt run manifest"):
            RunManifest.load(tmp_path)

    def test_manifest_without_proposal_batch_defaults_to_serial(
            self, tmp_path):
        """Manifests written before the field existed still load."""
        manifest = self.manifest()
        manifest.save(tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        del payload["proposal_batch"]
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        assert RunManifest.load(tmp_path).config.proposal_batch == 1

    def test_manifest_without_fidelity_defaults_to_off(self, tmp_path):
        """Manifests written before the fields existed still load."""
        manifest = self.manifest()
        manifest.save(tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        del payload["fidelity"]
        del payload["promotion_eta"]
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        loaded = RunManifest.load(tmp_path).config
        assert loaded.fidelity == "off"
        assert loaded.promotion_eta == 0.5

    def test_invalid_recorded_value_rejected(self, tmp_path):
        self.manifest().save(tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        payload["budget"] = 0
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match="corrupt run manifest.*budget must be"):
            RunManifest.load(tmp_path)

    def test_config_fields_sit_flat_on_disk(self, tmp_path):
        """Loading and re-saving a manifest leaves its bytes unchanged."""
        self.manifest().save(tmp_path)
        path = tmp_path / "manifest.json"
        written = path.read_text()
        assert "config" not in json.loads(written)
        assert json.loads(written)["seed"] == 7
        RunManifest.load(tmp_path).save(tmp_path)
        assert path.read_text() == written


class TestEvaluationJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "j.jnl", kind="test")
        for i in range(5):
            journal.append({"i": i, "v": float(i) / 3.0})
        journal.close()
        records = EvaluationJournal(tmp_path / "j.jnl", kind="test").load()
        assert [r["i"] for r in records] == list(range(5))
        # Pickle framing preserves float bit patterns exactly.
        assert records[4]["v"] == 4.0 / 3.0

    def test_truncated_tail_is_dropped_then_overwritten(self, tmp_path):
        path = tmp_path / "j.jnl"
        journal = EvaluationJournal(path, kind="test")
        for i in range(3):
            journal.append({"i": i})
        journal.close()
        # Simulate a kill mid-write: append garbage half-record bytes.
        with path.open("ab") as handle:
            handle.write(pickle.dumps({"i": 3})[:-4])
        reread = EvaluationJournal(path, kind="test")
        assert [r["i"] for r in reread.load()] == [0, 1, 2]
        # Appending after the load truncates the garbage tail.
        reread.append({"i": 3})
        reread.close()
        final = EvaluationJournal(path, kind="test").load()
        assert [r["i"] for r in final] == [0, 1, 2, 3]

    def test_wrong_kind_rejected(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "j.jnl", kind="alpha")
        journal.append({"i": 0})
        journal.close()
        with pytest.raises(CheckpointError, match="not a 'beta' journal"):
            EvaluationJournal(tmp_path / "j.jnl", kind="beta").load()

    def test_missing_file_loads_empty(self, tmp_path):
        assert EvaluationJournal(tmp_path / "none.jnl").load() == []

    def test_unreadable_header_loads_empty(self, tmp_path, caplog):
        path = tmp_path / "j.jnl"
        path.write_bytes(b"not a pickle")
        with caplog.at_level("WARNING"):
            assert EvaluationJournal(path, kind="test").load() == []
        assert "unreadable header" in caplog.text

    def test_other_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jnl"
        path.write_bytes(pickle.dumps(
            {"journal": "test", "schema": CHECKPOINT_SCHEMA_VERSION + 1}))
        with pytest.raises(CheckpointError, match="has schema"):
            EvaluationJournal(path, kind="test").load()

    def test_reset_discards_records(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "j.jnl", kind="test")
        journal.append({"i": 0})
        journal.reset()
        assert journal.load() == []

    def test_kill_fault_loses_only_the_in_flight_record(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "j.jnl", kind="test")
        journal.append({"i": 0})
        # The write counter belongs to the injector, so inside the
        # context the failing append is its write 0.
        with faults.active_faults("kill@checkpoint-write:0"):
            with pytest.raises(faults.SimulatedKill):
                journal.append({"i": 1})
        journal.close()
        assert [r["i"] for r in
                EvaluationJournal(tmp_path / "j.jnl", kind="test").load()] \
            == [0]


# ----------------------------------------------------------------------
# CEM trainer resume
# ----------------------------------------------------------------------
SMALL_CEM = dict(population_size=4, episodes_per_candidate=1, iterations=3,
                 seed=11)
POINT = PolicyHyperparams(num_layers=4, num_filters=32)

#: ``(trainer settings, template point, scenario)`` differing from
#: ``(SMALL_CEM, POINT, DENSE)`` in one input the CEM snapshot
#: fingerprint covers.  No two trainings may resume each other.
FOREIGN_TRAININGS = {
    "seed": (dict(SMALL_CEM, seed=99), POINT, Scenario.DENSE),
    "population": (dict(SMALL_CEM, population_size=6), POINT,
                   Scenario.DENSE),
    "elite-fraction": (dict(SMALL_CEM, elite_fraction=0.75), POINT,
                       Scenario.DENSE),
    "iterations": (dict(SMALL_CEM, iterations=4), POINT, Scenario.DENSE),
    "episodes": (dict(SMALL_CEM, episodes_per_candidate=2), POINT,
                 Scenario.DENSE),
    "initial-std": (dict(SMALL_CEM, initial_std=0.7), POINT,
                    Scenario.DENSE),
    "engine": (dict(SMALL_CEM, engine="scalar"), POINT, Scenario.DENSE),
    "template-point": (SMALL_CEM, PolicyHyperparams(4, 48), Scenario.DENSE),
    "scenario": (SMALL_CEM, POINT, Scenario.LOW),
}


@pytest.fixture(scope="module")
def small_cem_snapshot(tmp_path_factory):
    """A completed snapshot of ``SMALL_CEM`` training ``POINT`` on DENSE."""
    path = tmp_path_factory.mktemp("cem") / "cem.pkl"
    CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE, checkpoint_path=path)
    return path


def assert_same_training(result, expected):
    np.testing.assert_array_equal(result.best_params, expected.best_params)
    assert result.mean_return_trace == expected.mean_return_trace
    assert result.success_rate_trace == expected.success_rate_trace
    assert result.env_steps == expected.env_steps


class TestCemResume:
    @pytest.mark.parametrize("engine", ["vec", "scalar"])
    def test_killed_training_resumes_bit_identically(self, tmp_path, engine):
        baseline = CemTrainer(engine=engine, **SMALL_CEM).train(
            POINT, Scenario.DENSE)
        path = tmp_path / "cem.pkl"
        # Snapshot writes happen once per iteration; kill before the
        # second one, i.e. mid-run with one generation persisted.
        with faults.active_faults("kill@checkpoint-write:1"):
            with pytest.raises(faults.SimulatedKill):
                CemTrainer(engine=engine, **SMALL_CEM).train(
                    POINT, Scenario.DENSE, checkpoint_path=path)
        resumed = CemTrainer(engine=engine, **SMALL_CEM).train(
            POINT, Scenario.DENSE, checkpoint_path=path)
        assert_same_training(resumed, baseline)

    def test_scalar_snapshot_holding_the_env_resumes(self, tmp_path):
        """Earlier versions pickled the scalar engine's whole
        NavigationEnv, not its arena generator; such a snapshot still
        resumes bit-identically."""
        baseline = CemTrainer(engine="scalar", **SMALL_CEM).train(
            POINT, Scenario.DENSE)
        path = tmp_path / "cem.pkl"
        with faults.active_faults("kill@checkpoint-write:1"):
            with pytest.raises(faults.SimulatedKill):
                CemTrainer(engine="scalar", **SMALL_CEM).train(
                    POINT, Scenario.DENSE, checkpoint_path=path)
        snapshot = load_pickle(path)
        env = NavigationEnv(Scenario.DENSE, seed=SMALL_CEM["seed"])
        env.generator = snapshot.pop("generator")
        atomic_write_pickle(path, dict(snapshot, env=env))
        resumed = CemTrainer(engine="scalar", **SMALL_CEM).train(
            POINT, Scenario.DENSE, checkpoint_path=path)
        assert_same_training(resumed, baseline)

    def test_resume_reports_the_restored_steps(self, tmp_path):
        """The resumed result counts the steps its snapshot carried as
        ``restored_steps``; a snapshot written before that field
        existed resumes the same way."""
        baseline = CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE)
        path = tmp_path / "cem.pkl"
        with faults.active_faults("kill@checkpoint-write:1"):
            with pytest.raises(faults.SimulatedKill):
                CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE,
                                              checkpoint_path=path)
        snapshot = load_pickle(path)
        del snapshot["result"].restored_steps  # as pickled before
        atomic_write_pickle(path, snapshot)
        resumed = CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE,
                                                checkpoint_path=path)
        assert_same_training(resumed, baseline)
        assert baseline.restored_steps == 0
        restored = snapshot["result"].env_steps
        assert resumed.restored_steps == restored
        assert 0 < restored < resumed.env_steps

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        path = tmp_path / "cem.pkl"
        trainer = CemTrainer(**SMALL_CEM)
        first = trainer.train(POINT, Scenario.DENSE, checkpoint_path=path)
        again = trainer.train(POINT, Scenario.DENSE, checkpoint_path=path)
        np.testing.assert_array_equal(first.best_params, again.best_params)
        assert again.env_steps == first.env_steps

    @pytest.mark.parametrize("differing", sorted(FOREIGN_TRAININGS))
    def test_foreign_snapshot_rejected(self, small_cem_snapshot, differing):
        settings, point, scenario = FOREIGN_TRAININGS[differing]
        with pytest.raises(CheckpointError, match="different"):
            CemTrainer(**settings).train(point, scenario,
                                         checkpoint_path=small_cem_snapshot)

    def test_corrupt_snapshot_quarantined_and_retrained(self, tmp_path):
        path = tmp_path / "cem.pkl"
        path.write_bytes(b"garbage snapshot")
        baseline = CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE)
        result = CemTrainer(**SMALL_CEM).train(POINT, Scenario.DENSE,
                                               checkpoint_path=path)
        np.testing.assert_array_equal(result.best_params,
                                      baseline.best_params)
        assert path.with_name("cem.pkl.corrupt").exists()


# ----------------------------------------------------------------------
# Phase 2 DSE rerun: a resume recomputes Phase 2
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def task():
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


@pytest.fixture(scope="module")
def database(task):
    return FrontEnd(backend="surrogate", seed=0).run(task).database


@pytest.fixture(scope="module")
def small_space():
    return build_design_space(layer_choices=(4, 7), filter_choices=(32, 48),
                              pe_choices=(16, 32), sram_choices=(64, 128))


def assert_phase2_equal(a, b):
    assert len(a.candidates) == len(b.candidates)
    for x, y in zip(a.candidates, b.candidates):
        np.testing.assert_array_equal(x.objectives, y.objectives)
        assert x.design.policy == y.design.policy
        assert x.design.accelerator == y.design.accelerator
    np.testing.assert_array_equal(a.optimization.objective_matrix,
                                  b.optimization.objective_matrix)
    np.testing.assert_array_equal(a.reference, b.reference)


#: Phase 2 settings a resume must recompute exactly: the serial loop,
#: q-point groups, and q-point groups through the tier-0 screen.
RERUNS = {
    "q1": dict(optimizer_kwargs={"num_initial": 4, "pool_size": 16}),
    "q4": dict(optimizer_kwargs={"num_initial": 4, "pool_size": 16,
                                 "proposal_batch": 4}),
    "q4-fidelity": dict(optimizer_kwargs={"num_initial": 4,
                                          "pool_size": 16,
                                          "proposal_batch": 4},
                        fidelity="on", promotion_eta=0.5),
}


class TestPhase2Rerun:
    @pytest.mark.parametrize("settings", list(RERUNS))
    def test_rerun_is_bit_identical(self, database, task, small_space,
                                    settings):
        """A resume re-runs Phase 2 from its seed, so a second run, on a
        cold or a warm evaluation cache, must repeat the first."""
        def run():
            return MultiObjectiveDse(database=database, space=small_space,
                                     seed=5, **RERUNS[settings]).run(
                task, budget=14)

        reset_shared_cache()
        first = run()
        assert_phase2_equal(run(), first)
        reset_shared_cache()
        assert_phase2_equal(run(), first)


# ----------------------------------------------------------------------
# Full pipeline resume
# ----------------------------------------------------------------------
PIPE_CONFIG = RunConfig(seed=9, budget=20)


def assert_pipeline_equal(a, b):
    assert_phase2_equal(a.phase2, b.phase2)
    assert a.selected.candidate.design.policy == \
        b.selected.candidate.design.policy
    assert a.selected.candidate.design.accelerator == \
        b.selected.candidate.design.accelerator
    assert a.num_missions == b.num_missions
    assert list(a.phase1.database) == list(b.phase1.database)


#: A surrogate run's checkpoint writes are its manifest at the start
#: (write 0), on entering Phase 2 (write 1) and at the end (write 2).
#: A kill at the last leaves the state a kill anywhere in Phase 2 or 3
#: leaves, since neither writes anything of its own.
FINAL_MANIFEST_WRITE = 2

#: The manifest status a kill at each of those writes leaves on disk.
KILLED_STATUS = {
    1: {"phase1": "running", "phase2": "pending", "phase3": "pending"},
    FINAL_MANIFEST_WRITE: {"phase1": "complete", "phase2": "running",
                           "phase3": "pending"},
}


def killed(start, run_dir, write=FINAL_MANIFEST_WRITE) -> None:
    """Run ``start`` until checkpoint write ``write``, then check the
    status that the manifest in ``run_dir`` records."""
    with faults.active_faults(f"kill@checkpoint-write:{write}"):
        with pytest.raises(faults.SimulatedKill):
            start()
    assert RunManifest.load(run_dir).status == KILLED_STATUS[write]


class TestPipelineResume:
    @pytest.mark.parametrize("write", [
        pytest.param(1, id="phase1-running"),
        pytest.param(FINAL_MANIFEST_WRITE, id="phase2-running")])
    def test_killed_pipeline_resumes_bit_identically(self, tmp_path, task,
                                                     write):
        baseline = AutoPilot(PIPE_CONFIG).run(task)
        run_dir = tmp_path / "run"
        killed(lambda: AutoPilot(PIPE_CONFIG).run(
            task, checkpoint_dir=run_dir), run_dir, write)
        resumed = AutoPilot(PIPE_CONFIG).run(task, checkpoint_dir=run_dir,
                                             resume=True)
        assert_pipeline_equal(resumed, baseline)
        manifest = RunManifest.load(run_dir)
        assert manifest.status == {"phase1": "complete",
                                   "phase2": "complete",
                                   "phase3": "complete"}
        assert manifest.phase2_evaluations == 20

    def test_killed_multifidelity_pipeline_resumes_bit_identically(
            self, tmp_path, task):
        """A resume recomputes every screened group's promotions from
        the seed, so a run killed in Phase 2 resumes bit-identically."""
        config = replace(PIPE_CONFIG, proposal_batch=4, fidelity="on")
        baseline = AutoPilot(config).run(task)
        run_dir = tmp_path / "run"
        killed(lambda: AutoPilot(config).run(task, checkpoint_dir=run_dir),
               run_dir)
        resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                        resume=True)
        assert_pipeline_equal(resumed, baseline)
        manifest = RunManifest.load(run_dir)
        assert manifest.config.fidelity == "on"
        assert manifest.status["phase2"] == "complete"

    @pytest.mark.parametrize("config", [
        pytest.param(PIPE_CONFIG, id="q1"),
        pytest.param(replace(PIPE_CONFIG, proposal_batch=4, fidelity="on"),
                     id="q4-fidelity")])
    def test_resume_of_a_complete_run_repeats_it(self, tmp_path, task,
                                                 config):
        """Resuming a finished run recomputes it from a cold cache, as
        a new process would: the same result, and the directory holds
        the same manifest, byte for byte, and nothing else."""
        run_dir = tmp_path / "run"
        reset_shared_cache()
        completed = AutoPilot(config).run(task, checkpoint_dir=run_dir)
        recorded = (run_dir / "manifest.json").read_bytes()
        reset_shared_cache()
        resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                        resume=True)
        assert_pipeline_equal(resumed, completed)
        assert (run_dir / "manifest.json").read_bytes() == recorded
        assert tree(run_dir) == ["manifest.json"]

    @pytest.mark.parametrize("change", ["fixed-power", "ranking"])
    def test_resume_after_a_model_change_gives_the_current_models_run(
            self, tmp_path, monkeypatch, change):
        """A run killed in Phase 2 and resumed after the evaluation model
        changed yields the current model's candidates, not the recorded
        ones: whether the change scales every design's power alike or
        reorders designs, steering the optimiser elsewhere."""
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        config = RunConfig(seed=3, budget=20)
        run_dir = tmp_path / "run"
        reset_shared_cache()
        killed(lambda: AutoPilot(config).run(task, checkpoint_dir=run_dir),
               run_dir)

        if change == "fixed-power":
            fixed_w = dssoc.fixed_components_power_w
            monkeypatch.setattr(dssoc, "fixed_components_power_w",
                                lambda: 1.5 * fixed_w())
        else:
            evaluate = dssoc.DssocEvaluator._evaluate

            def larger_arrays_cost_more(self, design):
                evaluation = evaluate(self, design)
                scale = 1.0 + design.accelerator.num_pes / 1000
                return replace(evaluation,
                               soc_power_w=evaluation.soc_power_w * scale)

            monkeypatch.setattr(dssoc.DssocEvaluator, "_evaluate",
                                larger_arrays_cost_more)
        reset_shared_cache()
        try:
            fresh = AutoPilot(config).run(task)
            reset_shared_cache()
            resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                            resume=True)
        finally:
            reset_shared_cache()
        assert resumed.phase2.candidates == fresh.phase2.candidates
        assert_pipeline_equal(resumed, fresh)

    def test_resume_after_a_surrogate_change_gives_the_current_run(
            self, tmp_path, monkeypatch):
        """A resume re-derives every template point's success rate, so
        a run killed in Phase 2 and resumed after the surrogate changed
        yields the current surrogate's candidates."""
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        config = RunConfig(seed=3, budget=20)
        run_dir = tmp_path / "run"
        reset_shared_cache()
        killed(lambda: AutoPilot(config).run(task, checkpoint_dir=run_dir),
               run_dir)

        rate = SuccessRateSurrogate.success_rate
        monkeypatch.setattr(SuccessRateSurrogate, "success_rate",
                            lambda self, *args: 0.9 * rate(self, *args))
        reset_shared_cache()
        fresh = AutoPilot(config).run(task)
        reset_shared_cache()
        resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                        resume=True)
        reset_shared_cache()
        assert resumed.phase2.candidates == fresh.phase2.candidates
        assert_pipeline_equal(resumed, fresh)

    def test_checkpointing_leaves_the_design_unchanged(self, tmp_path,
                                                       task):
        config = RunConfig(seed=7, budget=30)
        reset_shared_cache()
        baseline = AutoPilot(config).run(task)
        reset_shared_cache()
        checkpointed = AutoPilot(config).run(task,
                                             checkpoint_dir=tmp_path / "run")
        assert checkpointed.num_missions == baseline.num_missions

    def test_kill_mid_phase2_resumes_to_the_same_design(self, tmp_path,
                                                        task):
        """The checkpointing runtime gate's workload, killed before its
        final manifest write."""
        config = RunConfig(seed=7, budget=30)
        reset_shared_cache()
        baseline = AutoPilot(config).run(task)
        run_dir = tmp_path / "run"
        reset_shared_cache()
        killed(lambda: AutoPilot(config).run(task, checkpoint_dir=run_dir),
               run_dir)
        reset_shared_cache()
        resumed = AutoPilot(config).run(task, checkpoint_dir=run_dir,
                                        resume=True)
        assert resumed.num_missions == baseline.num_missions
        assert resumed.selected.candidate == baseline.selected.candidate

    def test_resume_requires_checkpoint_dir(self, task):
        with pytest.raises(ConfigError, match="resume requires"):
            AutoPilot(PIPE_CONFIG).run(task, resume=True)

    def test_resume_with_missing_manifest_raises(self, tmp_path, task):
        with pytest.raises(CheckpointError, match="no run manifest found"):
            AutoPilot(PIPE_CONFIG).run(task,
                                       checkpoint_dir=tmp_path / "none",
                                       resume=True)


# ----------------------------------------------------------------------
# Write schedule: a manifest is written only for progress no earlier
# write holds
# ----------------------------------------------------------------------
@pytest.fixture
def json_writes(monkeypatch):
    """Paths of every ``atomic_write_json`` call, in order."""
    writes = []
    original = checkpoint_module.atomic_write_json

    def spy(path, payload):
        writes.append(Path(path))
        original(path, payload)

    monkeypatch.setattr(checkpoint_module, "atomic_write_json", spy)
    return writes


def tree(directory):
    """Every path under ``directory``, relative, as POSIX strings."""
    return sorted(path.relative_to(directory).as_posix()
                  for path in directory.rglob("*"))


class TestWriteSchedule:
    def test_run_writes_its_manifest_three_times(self, tmp_path, task,
                                                  json_writes):
        # At the start, on entering Phase 2 and at the end; a surrogate
        # run keeps nothing else.
        run_dir = tmp_path / "run"
        AutoPilot(RunConfig(seed=3, budget=6)).run(task,
                                                   checkpoint_dir=run_dir)
        assert json_writes == [run_dir / "manifest.json"] * 3
        assert tree(run_dir) == ["manifest.json"]

    def test_bench_writes_its_manifest_once(self, tmp_path, json_writes):
        suite = build_suite(ids=["dense"], platforms=["mini", "nano"])
        bench_dir = tmp_path / "bench"

        def written():
            counts = Counter(path.relative_to(bench_dir).as_posix()
                             for path in json_writes)
            json_writes.clear()
            return counts

        BenchRunner(AutoPilot(RunConfig(seed=3, budget=6)),
                    checkpoint_dir=bench_dir).run(suite)
        # The live cell's manifest is written three times; the cell
        # served from the Phase 2 cache skips the Phase 2 entry write.
        assert written() == {"bench.json": 1,
                             "cells/dense__mini/manifest.json": 3,
                             "cells/dense__nano/manifest.json": 2}
        assert tree(bench_dir) == [
            "bench.json", "cells", "cells/dense__mini",
            "cells/dense__mini/manifest.json", "cells/dense__nano",
            "cells/dense__nano/manifest.json"]
        # A resume verifies bench.json without rewriting it.
        BenchRunner(AutoPilot(RunConfig(seed=3, budget=6)),
                    checkpoint_dir=bench_dir, resume=True).run(suite)
        assert written() == {"cells/dense__mini/manifest.json": 3,
                             "cells/dense__nano/manifest.json": 2}


# ----------------------------------------------------------------------
# Run identity: every RunConfig field is recorded and verified
# ----------------------------------------------------------------------
#: A non-default value of every ``RunConfig`` field, as constructor
#: overrides.  The trainer settings also need the trainer backend.
NON_DEFAULT = {
    "seed": {"seed": 10},
    "budget": {"budget": 7},
    "frontend_backend": {"frontend_backend": "trainer"},
    "trainer": {"frontend_backend": "trainer",
                "trainer": {"population_size": 4, "iterations": 1,
                            "episodes_per_candidate": 1}},
    "proposal_batch": {"proposal_batch": 4},
    "fidelity": {"fidelity": "on"},
    "promotion_eta": {"promotion_eta": 0.25},
}


def _recorded_then_killed(start) -> None:
    """Run ``start`` until its second checkpoint write: the manifest is
    on disk, and Phase 2 has not started."""
    with faults.active_faults("kill@checkpoint-write:1"):
        with pytest.raises(faults.SimulatedKill):
            start()


class TestRunIdentity:
    def test_every_field_has_a_non_default_value(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_field_is_recorded_and_verified(self, tmp_path, task, name):
        overrides = NON_DEFAULT[name]
        base = {"seed": 9, "budget": 6}
        requested = RunConfig(**{**base, **overrides})
        recorded = RunConfig(**{**base, **{
            key: value for key, value in overrides.items() if key != name}})
        assert getattr(requested, name) != getattr(recorded, name)

        # The non-default value round-trips through both manifests, flat.
        suite = build_suite(ids=["dense"], platforms=["nano"])
        for manifest in (RunManifest.for_task(task, requested),
                         BenchManifest(scenarios=["dense"],
                                       platforms=["nano"], sensor_fps=60.0,
                                       config=requested)):
            directory = tmp_path / manifest.NOUN
            manifest.save(directory)
            assert type(manifest).load(directory) == manifest
            payload = json.loads((directory / manifest.FILE_NAME).read_text())
            assert payload[name] == getattr(requested, name)

        # Resuming a recorded run under a config differing in this field
        # is refused by name.
        run_dir = tmp_path / "run"
        _recorded_then_killed(lambda: AutoPilot(recorded).run(
            task, checkpoint_dir=run_dir))
        with pytest.raises(CheckpointError,
                           match=rf"the recorded run differs from the "
                                 rf"requested one \(.*\b{name}: recorded"):
            AutoPilot(requested).run(task, checkpoint_dir=run_dir,
                                     resume=True)
        bench_dir = tmp_path / "sweep"
        _recorded_then_killed(lambda: BenchRunner(
            AutoPilot(recorded), checkpoint_dir=bench_dir).run(suite))
        with pytest.raises(CheckpointError,
                           match=rf"the recorded sweep differs from the "
                                 rf"requested one \(.*\b{name}: recorded"):
            BenchRunner(AutoPilot(requested), checkpoint_dir=bench_dir,
                        resume=True).run(suite)


# ----------------------------------------------------------------------
# Retired options: a checkpoint shaped by a removed code path is refused
# ----------------------------------------------------------------------
def file_bytes(directory):
    """Every file under ``directory`` with its contents."""
    return {path: path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


class TestRetiredFields:
    #: The manifest that records the retired field, by where it sits.
    MANIFESTS = {"run": "manifest.json", "bench": "bench.json",
                 "cell": "cells/dense__nano/manifest.json"}

    @pytest.mark.parametrize("recorded_in", list(MANIFESTS))
    def test_refit_cadence_above_one_is_refused(self, tmp_path, task,
                                                recorded_in):
        """Earlier versions recorded ``gp_refit_every``; a checkpoint
        recording any value but 1 took a GP path this version no longer
        has, and is refused before anything in it is rewritten."""
        config = RunConfig(seed=9, budget=6)
        suite = build_suite(ids=["dense"], platforms=["nano"])
        directory = tmp_path / "checkpoint"

        def run(resume=False):
            if recorded_in == "run":
                return AutoPilot(config).run(task, checkpoint_dir=directory,
                                             resume=resume)
            return BenchRunner(AutoPilot(config), checkpoint_dir=directory,
                               resume=resume).run(suite)

        # Two writes: the run manifest at the start and on entering
        # Phase 2, or bench.json and the cell's start manifest.
        with faults.active_faults("kill@checkpoint-write:2"):
            with pytest.raises(faults.SimulatedKill):
                run()
        manifest = directory / self.MANIFESTS[recorded_in]
        payload = json.loads(manifest.read_text())
        payload["gp_refit_every"] = 8
        manifest.write_text(json.dumps(payload))
        written = file_bytes(directory)

        loader = BenchManifest if recorded_in == "bench" else RunManifest
        match = rf"{loader.NOUN} manifest at .* records gp_refit_every=8"
        with pytest.raises(CheckpointError, match=match):
            loader.load(manifest.parent)
        with pytest.raises(CheckpointError, match=match):
            run(resume=True)
        assert file_bytes(directory) == written


# ----------------------------------------------------------------------
# Phase 1 checkpoint: the surrogate keeps nothing
# ----------------------------------------------------------------------
class TestPhase1SurrogateCheckpoint:
    @pytest.mark.parametrize("resume", [False, True])
    def test_surrogate_ignores_the_checkpoint(self, tmp_path, task, resume):
        """A surrogate front end reads and writes nothing in the run
        directory: a journal that earlier versions wrote there, here
        with stale rates, is neither served nor rewritten."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        with checkpoint.phase1_journal() as journal:
            for point in enumerate_template_space():
                journal.append({"point": point, "scenario": "dense",
                                "success": 0.0, "env_steps": 0})
        written = file_bytes(checkpoint.run_dir)
        baseline = FrontEnd(backend="surrogate", seed=3).run(task)
        result = FrontEnd(backend="surrogate", seed=3).run(
            task, checkpoint=checkpoint, resume=resume)
        assert list(result.database) == list(baseline.database)
        assert result.trained == baseline.trained
        assert file_bytes(checkpoint.run_dir) == written


# ----------------------------------------------------------------------
# Phase 1 journal resume (trainer backend, per-point CEM snapshots)
# ----------------------------------------------------------------------
class TestPhase1TrainerResume:
    def test_fresh_sweep_discards_a_stale_journal(self, tmp_path, task):
        """A sweep started without ``resume`` serves nothing from a
        journal already in the directory, and replaces it."""
        frontend = FrontEnd(backend="trainer", seed=3,
                            trainer=CemTrainer(**dict(SMALL_CEM,
                                                      iterations=1)),
                            validation_episodes=4, workers=1)
        checkpoint = RunCheckpoint(tmp_path / "run")
        with checkpoint.phase1_journal() as journal:
            journal.append({"point": POINT, "scenario": "dense",
                            "success": -1.0, "env_steps": 0})
        result = frontend.run(task, hyperparams=[POINT],
                              checkpoint=checkpoint)
        success = result.database.get(POINT, task.scenario).success_rate
        assert success >= 0.0
        assert checkpoint.phase1_journal().load() == [
            {"point": POINT, "scenario": "dense", "success": success,
             "env_steps": result.env_steps}]

    def test_killed_training_sweep_resumes_bit_identically(self, tmp_path,
                                                           task):
        points = [PolicyHyperparams(num_layers=4, num_filters=32),
                  PolicyHyperparams(num_layers=4, num_filters=48)]

        def frontend():
            # One worker, also under REPRO_WORKERS: only points trained
            # in-process write per-generation CEM snapshots.
            return FrontEnd(backend="trainer", seed=3,
                            trainer=CemTrainer(**SMALL_CEM), workers=1)

        baseline = frontend().run(task, hyperparams=points)
        checkpoint = RunCheckpoint(tmp_path / "run")
        # Per point: 3 CEM snapshots + 1 journal append = 4 writes.
        # Kill at write 5: point 0 complete + journalled, point 1 has
        # one generation snapshotted.
        with faults.active_faults("kill@checkpoint-write:5"):
            with pytest.raises(faults.SimulatedKill):
                frontend().run(task, hyperparams=points,
                               checkpoint=checkpoint)
        resumed = frontend().run(task, hyperparams=points,
                                 checkpoint=checkpoint, resume=True)
        assert resumed.trained == baseline.trained
        assert resumed.env_steps == baseline.env_steps
        for point in points:
            assert resumed.database.get(point, task.scenario).success_rate \
                == baseline.database.get(point, task.scenario).success_rate

    def test_pool_sweep_killed_at_a_journal_append_resumes(self, tmp_path,
                                                           task):
        points = [PolicyHyperparams(num_layers=4, num_filters=32),
                  PolicyHyperparams(num_layers=4, num_filters=48),
                  PolicyHyperparams(num_layers=2, num_filters=32)]

        def frontend(workers):
            return FrontEnd(backend="trainer", seed=3,
                            trainer=CemTrainer(**dict(SMALL_CEM,
                                                      iterations=1)),
                            validation_episodes=4, workers=workers)

        baseline = frontend(1).run(task, hyperparams=points)
        checkpoint = RunCheckpoint(tmp_path / "run")
        # Points trained on the pool write no CEM snapshots, so the
        # writes are the three journal appends: die at the second.
        with faults.active_faults("kill@checkpoint-write:1"):
            with pytest.raises(faults.SimulatedKill):
                frontend(2).run(task, hyperparams=points,
                                checkpoint=checkpoint)
        assert len(checkpoint.phase1_journal().load()) == 1
        # The two points left train on the pool again.
        resumed = frontend(2).run(task, hyperparams=points,
                                  checkpoint=checkpoint, resume=True)
        assert resumed.trained == baseline.trained
        assert resumed.env_steps == baseline.env_steps
        assert list(resumed.database) == list(baseline.database)

    def test_resume_counts_restored_generations_as_replayed(self, tmp_path,
                                                            task):
        """A point resumed from its CEM snapshot counts the restored
        generation's rollout steps as ``steps.replayed``, beside those
        of the journalled point, and only the rest as ``steps``."""
        points = [PolicyHyperparams(num_layers=4, num_filters=32),
                  PolicyHyperparams(num_layers=4, num_filters=48)]

        def frontend():
            return FrontEnd(backend="trainer", seed=3,
                            trainer=CemTrainer(**SMALL_CEM), workers=1)

        with span("phase1") as uninterrupted:
            baseline = frontend().run(task, hyperparams=points)
        checkpoint = RunCheckpoint(tmp_path / "run")
        # Per point: 3 CEM snapshots + 1 journal append.  Kill at write
        # 5: point 0 journalled, point 1 one generation snapshotted.
        with faults.active_faults("kill@checkpoint-write:5"):
            with pytest.raises(faults.SimulatedKill):
                frontend().run(task, hyperparams=points,
                               checkpoint=checkpoint)
        journalled = checkpoint.phase1_journal().load()[0]["env_steps"]
        restored = load_pickle(checkpoint.cem_checkpoint_path(
            points[1], task.scenario))["result"].env_steps
        with span("phase1") as resumed:
            result = frontend().run(task, hyperparams=points,
                                    checkpoint=checkpoint, resume=True)
        assert restored > 0
        assert resumed.counts == {
            "steps": uninterrupted.counts["steps"] - journalled - restored,
            "steps.replayed": journalled + restored}
        assert result.env_steps == baseline.env_steps

    def test_resume_counts_replayed_steps_apart(self, tmp_path, task):
        """A resumed sweep counts the steps it executes as ``steps`` and
        those of journalled points as ``steps.replayed``; together they
        are the uninterrupted sweep's ``steps``."""
        points = [PolicyHyperparams(num_layers=4, num_filters=32),
                  PolicyHyperparams(num_layers=2, num_filters=32)]

        def frontend():
            return FrontEnd(backend="trainer", seed=3,
                            trainer=CemTrainer(**dict(SMALL_CEM,
                                                      iterations=1)),
                            validation_episodes=4, workers=1)

        with span("phase1") as uninterrupted:
            baseline = frontend().run(task, hyperparams=points)
        checkpoint = RunCheckpoint(tmp_path / "run")
        # Per point: one CEM snapshot, then one journal append.  Dying at
        # write 2 leaves point 0 journalled and point 1 untouched.
        with faults.active_faults("kill@checkpoint-write:2"):
            with pytest.raises(faults.SimulatedKill):
                frontend().run(task, hyperparams=points,
                               checkpoint=checkpoint)
        with span("phase1") as resumed:
            result = frontend().run(task, hyperparams=points,
                                    checkpoint=checkpoint, resume=True)
        replayed = checkpoint.phase1_journal().load()[0]["env_steps"]
        assert resumed.counts == {
            "steps": uninterrupted.counts["steps"] - replayed,
            "steps.replayed": replayed}
        assert 0 < replayed < uninterrupted.counts["steps"]
        assert result.env_steps == baseline.env_steps
