"""The AutoPilot pipeline: Phase 1 -> Phase 2 -> Phase 3 (Fig. 1).

Usage:

    >>> from repro import AutoPilot, RunConfig, TaskSpec, Scenario, NANO_ZHANG
    >>> task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    >>> result = AutoPilot(RunConfig(seed=7, budget=80)).run(task)
    >>> result.selected.mission.num_missions  # doctest: +SKIP

The pipeline reuses the Phase 1 database and Phase 2 candidate pool
across UAVs and scenarios when asked (the paper's phase-reuse argument:
"a bad design point for one UAV type can be a balanced design ... for
another").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.scenarios import Scenario
from repro.core.phase1 import FrontEnd, Phase1Result
from repro.core.phase2 import MultiObjectiveDse, Phase2Result
from repro.core.phase3 import BackEnd, Phase3Result, RankedDesign
from repro.core.spec import RunConfig, TaskSpec
from repro.errors import ConfigError
from repro.perf import Span, recorded_span

# Only a checkpointing run loads the checkpoint layer (and ``logging``).
if TYPE_CHECKING:
    from repro.core.checkpoint import RunCheckpoint, RunManifest


@dataclass
class AutoPilotResult:
    """Everything produced by one AutoPilot run."""

    task: TaskSpec
    phase1: Phase1Result
    phase2: Phase2Result
    phase3: Phase3Result
    #: The run's span (one child per phase run) when profiled.
    profile: Optional[Span] = None

    @property
    def selected(self) -> RankedDesign:
        """The AP design."""
        return self.phase3.selected

    @property
    def num_missions(self) -> float:
        """Mission count of the AP design."""
        return self.selected.num_missions


class AutoPilot:
    """End-to-end AutoPilot methodology driver.

    ``config`` is everything that shapes the output besides the task.
    ``workers`` sets the number of Phase 1 training processes (trainer
    backend only; ``None`` consults ``REPRO_WORKERS``).  Phases 2 and 3
    always run in-process.
    """

    def __init__(self, config: RunConfig, *, workers: Optional[int] = None):
        self.config = config
        trainer = None
        if config.trainer is not None:
            from repro.airlearning.trainer import CemTrainer
            trainer = CemTrainer.from_settings(config.trainer,
                                               seed=config.seed)
        self.frontend = FrontEnd(backend=config.frontend_backend,
                                 seed=config.seed, trainer=trainer,
                                 workers=workers)
        self.backend = BackEnd()
        # Phase 1 results are reused across runs (keyed by scenario via
        # the shared database); Phase 2 results by scenario as well,
        # since only Phase 3 depends on the UAV.
        self.database = AirLearningDatabase()
        self._phase2_cache: Dict[Scenario, Phase2Result] = {}

    def run(self, task: TaskSpec, reuse_phase2: bool = True,
            profile: bool = False,
            checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
            resume: bool = False) -> AutoPilotResult:
        """Run the three phases for one task specification.

        With ``profile=True``, or under a span the caller has open, the
        run is timed as a ``run`` span (:func:`repro.perf.span`) with a
        ``phase1``, ``phase2`` and ``phase3`` child, nested under the
        caller's span; a Phase 2 served from this pilot's earlier run
        has no ``phase2`` span.  With ``profile=True`` the result
        carries that span, holding only this run's wall time and
        counts.  Otherwise the run opens no span, and each layer's
        spans are roots, dropped as their blocks end.

        With ``checkpoint_dir`` set, the run writes an atomic manifest
        into the directory, and the trainer backend's Phase 1 its
        journal and CEM snapshots; a later call with ``resume=True``
        verifies the manifest against this task and config, raising
        :class:`~repro.errors.CheckpointError` on any mismatch, serves
        the trainer's completed work and recomputes the rest, producing
        a result bit-identical to an uninterrupted run.  The manifest is
        written only when it records progress no earlier write holds:
        at the start, before a live Phase 2, and at the end.
        """
        if resume and checkpoint_dir is None:
            raise ConfigError("resume requires a checkpoint directory")
        config = self.config
        checkpoint: Optional[RunCheckpoint] = None
        manifest: Optional[RunManifest] = None
        if checkpoint_dir is not None:
            from repro.core.checkpoint import RunCheckpoint, RunManifest
            checkpoint = RunCheckpoint(checkpoint_dir)
            manifest = RunManifest.for_task(task, config)
            if resume:
                manifest.check_resume(checkpoint.run_dir)
            manifest.status["phase1"] = "running"
            manifest.save(checkpoint.run_dir)

        with recorded_span("run", root=profile) as run:
            with recorded_span("phase1"):
                phase1 = self.frontend.run(task, database=self.database,
                                           checkpoint=checkpoint,
                                           resume=resume)

            phase2 = (self._phase2_cache.get(task.scenario)
                      if reuse_phase2 else None)
            if phase2 is None:
                dse = MultiObjectiveDse(
                    database=self.database, seed=config.seed,
                    optimizer_kwargs={
                        "proposal_batch": config.proposal_batch},
                    fidelity=config.fidelity,
                    promotion_eta=config.promotion_eta)
                if manifest is not None:
                    manifest.status.update(phase1="complete",
                                           phase2="running")
                    manifest.save(checkpoint.run_dir)
                with recorded_span("phase2"):
                    phase2 = dse.run(task, budget=config.budget)
                self._phase2_cache[task.scenario] = phase2

            with recorded_span("phase3"):
                phase3 = self.backend.run(phase2.candidates, task)
            if manifest is not None:
                manifest.status.update(phase1="complete", phase2="complete",
                                       phase3="complete")
                manifest.phase2_evaluations = len(
                    phase2.optimization.evaluations)
                manifest.save(checkpoint.run_dir)

        return AutoPilotResult(
            task=task, phase1=phase1, phase2=phase2, phase3=phase3,
            profile=run if profile else None)
