"""Phase 1 -- domain-specific front end (Fig. 1, left).

Given the task specification, train and validate a family of E2E policy
candidates (the Fig. 2a template swept over Table II's NN
hyper-parameters) and record each validated policy's success rate in
the Air Learning database.

Two backends are available:

* ``surrogate`` (default): the calibrated success-rate surrogate,
  standing in for the paper's multi-day RL training farm -- covers all
  27 template points instantly and reproduces Fig. 2b's shape;
* ``trainer``: the real CEM trainer on the navigation simulator,
  exercising the full train -> validate -> database path on the
  vectorised rollout engine.  Each template point's train -> validate
  is one task; with ``workers > 1`` the tasks run on a process pool,
  the only one in a run: Phase 2 evaluates in-process.

Either way the database is the only memo: a point already in it for the
task's scenario is neither trained nor validated again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.surrogate import SuccessRateSurrogate
from repro.airlearning.scenarios import Scenario
from repro.core.spec import TaskSpec
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams, enumerate_template_space
from repro.perf.profiler import count

# The trainer stack (simulator, sensors, policies, CEM), the checkpoint
# layer and the process pool are imported only where a run uses them, so
# a surrogate run without a checkpoint never loads them.
if TYPE_CHECKING:
    from repro.airlearning.trainer import CemTrainer
    from repro.core.checkpoint import RunCheckpoint

#: Environment variable enabling parallel Phase 1 training process-wide.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` env > 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        else:
            workers = 1
    if workers <= 0:
        raise ConfigError("workers must be positive")
    return workers


@dataclass
class Phase1Result:
    """Output of the front end: the populated Air Learning database."""

    database: AirLearningDatabase
    trained: List[PolicyHyperparams] = field(default_factory=list)
    #: Which backend produced the newly trained entries.
    backend: str = "surrogate"
    #: Environment transitions executed (training + validation rollouts).
    env_steps: int = 0

    def best_success_rate(self, task: TaskSpec) -> float:
        """Best validated success rate available for the task's scenario."""
        return self.database.best(task.scenario).success_rate


def _train_and_validate(task: tuple) -> Tuple[float, int, int]:
    """Train one template point and validate its best policy.

    ``task`` is ``(trainer, point, scenario, validation episodes,
    validation seed, CEM snapshot path or None)``.  Returns the
    validated success rate, the rollout steps of both, and how many of
    those the CEM snapshot restored rather than this call executing
    them.  Module-level so the process pool can pickle it.
    """
    from repro.airlearning.dynamics import NUM_ACTIONS
    from repro.airlearning.evaluate import validate_policy
    from repro.airlearning.policy import MlpPolicy
    from repro.airlearning.sensors import RaycastSensor

    trainer, point, scenario, episodes, seed, cem_path = task
    training = trainer.train(point, scenario, checkpoint_path=cem_path)
    sensor = RaycastSensor()
    policy = MlpPolicy(point, sensor.num_rays + 4, NUM_ACTIONS)
    policy.set_params(training.best_params)
    validation = validate_policy(policy, scenario, episodes=episodes,
                                 seed=seed, engine=trainer.engine)
    return (validation.success_rate,
            training.env_steps + validation.env_steps,
            training.restored_steps)


class FrontEnd:
    """Phase 1 driver."""

    def __init__(self, backend: str = "surrogate", seed: int = 0,
                 trainer: Optional[CemTrainer] = None,
                 validation_episodes: int = 20,
                 workers: Optional[int] = None):
        if backend not in ("surrogate", "trainer"):
            raise ConfigError("backend must be 'surrogate' or 'trainer'")
        self.backend = backend
        self.seed = seed
        if trainer is None and backend == "trainer":
            from repro.airlearning.trainer import CemTrainer
            trainer = CemTrainer(seed=seed)
        #: The CEM trainer; ``None`` for a surrogate front end built
        #: without one.
        self.trainer = trainer
        self.validation_episodes = validation_episodes
        self.workers = resolve_workers(workers)
        # One surrogate for the whole front end: constructing it per
        # template point re-derived the calibration tables 27 times.
        self._surrogate = SuccessRateSurrogate(seed=seed)

    def run(self, task: TaskSpec,
            hyperparams: Optional[Sequence[PolicyHyperparams]] = None,
            database: Optional[AirLearningDatabase] = None,
            checkpoint: Optional[RunCheckpoint] = None,
            resume: bool = False) -> Phase1Result:
        """Populate the database for the task's scenario.

        The rollout steps this call executes are counted as ``steps``
        on the open span, and those of points replayed from the journal
        or generations restored from a CEM snapshot as
        ``steps.replayed``, so a resumed run's steps/s reads only the
        work it did.  ``env_steps`` of the result holds both.

        Args:
            task: The task specification.
            hyperparams: Template points to train; defaults to the whole
                Table II NN sub-space.
            database: An existing database to extend (policies are reused
                across UAVs, per the paper's phase-reuse argument).
            checkpoint: Optional run-checkpoint layout, used by the
                trainer backend only.  Every validated template point is
                journalled, and (in-process) each point's CEM state is
                snapshotted per generation, so an interrupted sweep
                resumes at the last completed generation of the point
                it died in.  A surrogate rate costs microseconds, so a
                surrogate run writes nothing there and a resume
                re-derives every rate.
            resume: Serve the checkpoint's journalled success rates
                into the database instead of discarding the journal.
        """
        points = list(hyperparams or enumerate_template_space())
        db = database if database is not None else AirLearningDatabase()
        result = Phase1Result(database=db, backend=self.backend)

        if self.backend == "surrogate":
            checkpoint = None
        journal = None
        replayed_steps = 0
        if checkpoint is not None:
            journal = checkpoint.phase1_journal()
            if resume:
                for record in journal.load():
                    if record.get("scenario") != task.scenario.value:
                        continue
                    point = record["point"]
                    if db.get(point, task.scenario) is None:
                        db.add(point, task.scenario, record["success"])
                        result.trained.append(point)
                        replayed_steps += record["env_steps"]
            else:
                journal.reset()

        todo = [p for p in points
                if db.get(p, task.scenario) is None]  # reuse prior runs
        try:
            for point, (success, steps, restored) in zip(
                    todo, self._outcomes(todo, task.scenario, checkpoint)):
                result.env_steps += steps - restored
                replayed_steps += restored
                db.add(point, task.scenario, success)
                result.trained.append(point)
                if journal is not None:
                    journal.append({"point": point,
                                    "scenario": task.scenario.value,
                                    "success": success,
                                    "env_steps": steps})
        finally:
            if journal is not None:
                journal.close()
        count("steps", result.env_steps)
        if replayed_steps:
            count("steps.replayed", replayed_steps)
        result.env_steps += replayed_steps
        return result

    def _outcomes(self, points: Sequence[PolicyHyperparams],
                  scenario: Scenario,
                  checkpoint: Optional[RunCheckpoint]
                  ) -> Iterable[Tuple[float, int, int]]:
        """Each point's success rate, rollout steps and the steps of
        those restored from its CEM snapshot, in order.

        In-process the outcomes are produced lazily, so a point's CEM
        snapshots are written before its journal record and the next
        point's training.  On the pool, points write no CEM snapshots.
        """
        if self.backend == "surrogate":
            return ((self._surrogate.success_rate(point, scenario), 0, 0)
                    for point in points)
        on_pool = self.workers > 1 and len(points) > 1
        tasks = [(self.trainer, point, scenario, self.validation_episodes,
                  self.seed,
                  None if on_pool or checkpoint is None
                  else checkpoint.cem_checkpoint_path(point, scenario))
                 for point in points]
        if on_pool:
            from repro.core.parallel import parallel_map
            return parallel_map(_train_and_validate, tasks,
                                workers=self.workers)
        return map(_train_and_validate, tasks)
