"""The AutoPilot pipeline: Phase 1 -> Phase 2 -> Phase 3 (Fig. 1).

Usage:

    >>> from repro import AutoPilot, TaskSpec, Scenario, NANO_ZHANG
    >>> task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    >>> result = AutoPilot(seed=7).run(task, budget=80)
    >>> result.selected.mission.num_missions  # doctest: +SKIP

The pipeline reuses the Phase 1 database and Phase 2 candidate pool
across UAVs and scenarios when asked (the paper's phase-reuse argument:
"a bad design point for one UAV type can be a balanced design ... for
another").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type, Union

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.scenarios import Scenario
from repro.airlearning.trainer import CemTrainer
from repro.core.checkpoint import RunCheckpoint, RunManifest
from repro.core.workers import resolve_pool_mode
from repro.core.phase1 import FrontEnd, Phase1Result
from repro.core.phase2 import MultiObjectiveDse, Phase2Result
from repro.core.phase3 import BackEnd, Phase3Result, RankedDesign
from repro.core.spec import TaskSpec
from repro.errors import CheckpointError, ConfigError
from repro.optim.base import Optimizer
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.perf import ProfileReport, Profiler


@dataclass
class AutoPilotResult:
    """Everything produced by one AutoPilot run."""

    task: TaskSpec
    phase1: Phase1Result
    phase2: Phase2Result
    phase3: Phase3Result
    #: Per-phase wall time, throughput and cache activity for this run.
    profile: Optional[ProfileReport] = None

    @property
    def selected(self) -> RankedDesign:
        """The AP design."""
        return self.phase3.selected

    @property
    def num_missions(self) -> float:
        """Mission count of the AP design."""
        return self.selected.num_missions


class AutoPilot:
    """End-to-end AutoPilot methodology driver."""

    def __init__(self, seed: int = 0, frontend_backend: str = "surrogate",
                 optimizer_cls: Type[Optimizer] = SmsEgoBayesOpt,
                 optimizer_kwargs: Optional[dict] = None,
                 enable_finetuning: bool = True,
                 weight_feedback: bool = True,
                 workers: Optional[int] = None,
                 trainer: Optional[CemTrainer] = None,
                 fidelity: str = "off",
                 promotion_eta: float = 0.5,
                 pool: Optional[str] = None):
        self.seed = seed
        self.fidelity = fidelity
        self.promotion_eta = promotion_eta
        # Resolve now (explicit > REPRO_POOL > cold); warm runs reuse
        # one process-wide executor and ship design batches through
        # shared memory.
        self.pool = resolve_pool_mode(pool)
        self.frontend = FrontEnd(backend=frontend_backend, seed=seed,
                                 trainer=trainer, workers=workers,
                                 pool=self.pool)
        self.optimizer_cls = optimizer_cls
        self.optimizer_kwargs = optimizer_kwargs
        self.backend = BackEnd(enable_finetuning=enable_finetuning,
                               weight_feedback=weight_feedback)
        self.workers = workers
        # Phase 1 results are reused across runs (keyed by scenario via
        # the shared database); Phase 2 results by scenario as well,
        # since only Phase 3 depends on the UAV.
        self.database = AirLearningDatabase()
        self._phase2_cache: Dict[Tuple[Scenario, int], Phase2Result] = {}

    def run(self, task: TaskSpec, budget: int = 120,
            reuse_phase2: bool = True,
            profile: bool = False,
            checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
            resume: bool = False) -> AutoPilotResult:
        """Run the three phases for one task specification.

        With ``profile=True``, the result carries a
        :class:`~repro.perf.ProfileReport` of per-phase wall time,
        evaluation throughput and simulator-cache activity.

        With ``checkpoint_dir`` set, the run writes an atomic manifest
        plus per-phase progress journals into the directory; a later
        call with ``resume=True`` fast-forwards through the completed
        work and produces a result bit-identical to an uninterrupted
        run.  Resuming verifies the manifest against this pipeline's
        configuration and raises
        :class:`~repro.errors.CheckpointError` on any mismatch.
        """
        if resume and checkpoint_dir is None:
            raise ConfigError("resume requires a checkpoint directory")
        checkpoint: Optional[RunCheckpoint] = None
        manifest: Optional[RunManifest] = None
        if checkpoint_dir is not None:
            checkpoint = RunCheckpoint(checkpoint_dir)
            manifest = self._manifest_for(task, budget)
            if resume:
                previous = RunManifest.load(checkpoint.run_dir)
                self._verify_manifest(previous, manifest, checkpoint)
            manifest.save(checkpoint.run_dir)

        profiler = Profiler()
        if manifest is not None:
            manifest.status["phase1"] = "running"
            manifest.save(checkpoint.run_dir)
        with profiler.phase("phase1"):
            phase1 = self.frontend.run(task, database=self.database,
                                       profiler=profiler,
                                       checkpoint=checkpoint,
                                       resume=resume)
        if manifest is not None:
            manifest.status["phase1"] = "complete"
            manifest.save(checkpoint.run_dir)

        cache_key = (task.scenario, budget)
        phase2 = (self._phase2_cache.get(cache_key)
                  if reuse_phase2 else None)
        if phase2 is None:
            dse = MultiObjectiveDse(
                database=self.database,
                optimizer_cls=self.optimizer_cls,
                seed=self.seed,
                optimizer_kwargs=self.optimizer_kwargs,
                workers=self.workers,
                fidelity=self.fidelity,
                promotion_eta=self.promotion_eta,
                pool=self.pool)
            journal = (checkpoint.phase2_journal()
                       if checkpoint is not None else None)
            promotion_journal = (checkpoint.phase2_promotions_journal()
                                 if checkpoint is not None else None)
            if manifest is not None:
                manifest.status["phase2"] = "running"
                manifest.save(checkpoint.run_dir)
            with profiler.phase("phase2"):
                phase2 = dse.run(task, budget=budget, profiler=profiler,
                                 journal=journal,
                                 promotion_journal=promotion_journal,
                                 resume=resume)
            self._phase2_cache[cache_key] = phase2
        if manifest is not None:
            manifest.status["phase2"] = "complete"
            manifest.phase2_evaluations = len(
                phase2.optimization.evaluations)
            manifest.save(checkpoint.run_dir)

        with profiler.phase("phase3"):
            phase3 = self.backend.run(phase2.candidates, task)
        if manifest is not None:
            manifest.status["phase3"] = "complete"
            manifest.save(checkpoint.run_dir)

        return AutoPilotResult(
            task=task, phase1=phase1, phase2=phase2, phase3=phase3,
            profile=profiler.report() if profile else None)

    # ------------------------------------------------------------------
    def _manifest_for(self, task: TaskSpec, budget: int) -> RunManifest:
        """The manifest describing this pipeline configuration."""
        trainer_cfg = None
        if self.frontend.backend == "trainer":
            trainer = self.frontend.trainer
            trainer_cfg = {
                "population_size": trainer.population_size,
                "elite_count": trainer.elite_count,
                "episodes_per_candidate": trainer.episodes_per_candidate,
                "iterations": trainer.iterations,
                "initial_std": trainer.initial_std,
                "engine": trainer.engine,
            }
        optimizer_kwargs = self.optimizer_kwargs or {}
        return RunManifest(uav=task.platform.name,
                           scenario=task.scenario.value,
                           seed=self.seed, budget=budget,
                           sensor_fps=task.sensor_fps,
                           frontend_backend=self.frontend.backend,
                           trainer=trainer_cfg,
                           proposal_batch=optimizer_kwargs.get(
                               "proposal_batch", 1),
                           gp_refit_every=optimizer_kwargs.get(
                               "gp_refit_every", 1),
                           fidelity=self.fidelity,
                           promotion_eta=self.promotion_eta,
                           pool=self.pool)

    @staticmethod
    def _verify_manifest(previous: RunManifest, current: RunManifest,
                         checkpoint: RunCheckpoint) -> None:
        """Refuse to resume a run under a different configuration."""
        mismatched = [
            name for name in ("uav", "scenario", "seed", "budget",
                              "sensor_fps", "frontend_backend", "trainer",
                              "proposal_batch", "gp_refit_every",
                              "fidelity", "promotion_eta", "pool")
            if getattr(previous, name) != getattr(current, name)]
        if mismatched:
            details = ", ".join(
                f"{name}: recorded {getattr(previous, name)!r}, "
                f"requested {getattr(current, name)!r}"
                for name in mismatched)
            raise CheckpointError(
                f"cannot resume {checkpoint.manifest_path}: the recorded "
                f"run differs from the requested one ({details})")
