"""Cross-entropy-method (CEM) policy trainer.

Air Learning trains its policies with deep RL on GPUs over days; the
simulator substitute uses the cross-entropy method -- a derivative-free
evolutionary strategy that is a standard strong baseline for
low-dimensional control -- so the full train -> validate -> database
code path runs in seconds.  The trainer is deterministic under its seed.

Each CEM iteration rolls the whole population out, then evaluates the
elites' mean, through the engine's rollout function
(:data:`~repro.airlearning.evaluate.ROLLOUTS`): ``vec`` (default), the
batched lockstep engine, or ``scalar``, the sequential loop retained as
the correctness oracle.  Both draw every arena of a run from one
:class:`~repro.airlearning.arena.ArenaGenerator` in the same order and
are bit-equivalent under a fixed seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.airlearning.arena import ArenaGenerator
from repro.airlearning.dynamics import NUM_ACTIONS
from repro.airlearning.evaluate import ROLLOUTS, check_engine
from repro.airlearning.policy import MlpPolicy
from repro.airlearning.scenarios import Scenario
from repro.airlearning.sensors import RaycastSensor
from repro.errors import CheckpointError, ConfigError
from repro.nn.template import PolicyHyperparams


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    hyperparams: PolicyHyperparams
    scenario: Scenario
    best_params: np.ndarray
    mean_return_trace: List[float] = field(default_factory=list)
    success_rate_trace: List[float] = field(default_factory=list)
    #: Environment transitions executed during training.
    env_steps: int = 0
    #: Of ``env_steps``, those restored from a CEM snapshot: executed by
    #: an earlier, interrupted call, not by this one.
    restored_steps: int = 0

    @property
    def final_success_rate(self) -> float:
        """Training-time success rate of the last iteration's mean policy."""
        return self.success_rate_trace[-1] if self.success_rate_trace else 0.0


class CemTrainer:
    """Cross-entropy method over the flat policy parameter vector."""

    def __init__(self, population_size: int = 24, elite_fraction: float = 0.25,
                 episodes_per_candidate: int = 3, iterations: int = 15,
                 initial_std: float = 0.5, seed: int = 0,
                 engine: str = "vec"):
        if population_size < 4:
            raise ConfigError("population_size must be at least 4")
        if not 0.0 < elite_fraction <= 1.0:
            raise ConfigError("elite_fraction must be in (0, 1]")
        if episodes_per_candidate < 1 or iterations < 1:
            raise ConfigError("episodes and iterations must be positive")
        check_engine(engine)
        self.population_size = population_size
        self.elite_count = max(2, int(round(population_size * elite_fraction)))
        self.episodes_per_candidate = episodes_per_candidate
        self.iterations = iterations
        self.initial_std = initial_std
        self.seed = seed
        self.engine = engine

    @classmethod
    def from_settings(cls, settings: Mapping[str, Any],
                      seed: int = 0) -> "CemTrainer":
        """Inverse of :meth:`settings`; keys left out take the defaults.

        An ``engine`` key, which older manifests record, is accepted:
        the engines are bit-equivalent, so :meth:`settings` leaves it
        out.

        Raises:
            ConfigError: on an invalid setting.
            TypeError: on an unknown setting.
        """
        kwargs = dict(settings)
        elite_count = kwargs.pop("elite_count", None)
        trainer = cls(seed=seed, **kwargs)
        if elite_count is not None:
            if not 2 <= elite_count <= trainer.population_size:
                raise ConfigError(
                    "elite_count must be in [2, population_size], got "
                    f"{elite_count!r}")
            trainer.elite_count = elite_count
        return trainer

    def settings(self) -> Dict[str, Any]:
        """Everything that shapes a training run bar the run's seed."""
        return {"population_size": self.population_size,
                "elite_count": self.elite_count,
                "episodes_per_candidate": self.episodes_per_candidate,
                "iterations": self.iterations,
                "initial_std": self.initial_std}

    def train(self, hyperparams: PolicyHyperparams,
              scenario: Scenario,
              checkpoint_path: Optional[Union[str, os.PathLike]] = None
              ) -> TrainingResult:
        """Train one policy for one scenario; deterministic under seed.

        With ``checkpoint_path`` set, the full per-generation state
        (RNG, arena stream, distribution, traces) is snapshotted
        atomically after every CEM iteration; a later call with the
        same configuration and path resumes from the last completed
        iteration and produces a bit-identical result, whose
        ``restored_steps`` counts the steps the snapshot carried.  A
        snapshot written by a *different* configuration raises
        :class:`~repro.errors.CheckpointError`; an unreadable snapshot
        is quarantined and training restarts from scratch.
        """
        rollouts = ROLLOUTS[self.engine]
        rng = np.random.default_rng(self.seed)
        # One arena stream for the whole run, consumed candidate-major:
        # the population's episodes first, then the mean's evaluation.
        generator = ArenaGenerator(scenario, seed=self.seed)
        sensor = RaycastSensor()
        num_params = MlpPolicy(hyperparams, sensor.num_rays + 4,
                               NUM_ACTIONS).num_params

        mean = np.zeros(num_params)
        std = np.full(num_params, self.initial_std)
        result = TrainingResult(hyperparams=hyperparams, scenario=scenario,
                                best_params=mean.copy())

        start_iteration = 0
        if checkpoint_path is not None:
            snapshot = self._load_snapshot(checkpoint_path, hyperparams,
                                           scenario)
            if snapshot is not None:
                # The RNG and arena-generator states make the remaining
                # iterations bit-identical to an uninterrupted run.
                start_iteration = snapshot["iteration"]
                rng = snapshot["rng"]
                # Older scalar-engine snapshots pickled the whole
                # NavigationEnv; its generator is the only state that
                # outlives an episode.
                generator = (snapshot["generator"] if "generator" in snapshot
                             else snapshot["env"].generator)
                mean = snapshot["mean"]
                std = snapshot["std"]
                result = snapshot["result"]
                result.restored_steps = result.env_steps

        for iteration in range(start_iteration, self.iterations):
            population = rng.normal(mean, std,
                                    size=(self.population_size, num_params))
            returns, _, _, steps = rollouts(hyperparams, generator, sensor,
                                            population,
                                            self.episodes_per_candidate)
            result.env_steps += steps

            elite_idx = np.argsort(-returns)[:self.elite_count]
            elites = population[elite_idx]
            mean = elites.mean(axis=0)
            std = elites.std(axis=0) + 0.02  # noise floor keeps exploring

            episodes = self.episodes_per_candidate * 2
            mean_returns, successes, _, steps = rollouts(
                hyperparams, generator, sensor, mean[None, :], episodes)
            result.env_steps += steps
            result.mean_return_trace.append(float(mean_returns[0]))
            result.success_rate_trace.append(int(successes[0]) / episodes)
            result.best_params = mean.copy()

            if checkpoint_path is not None:
                self._save_snapshot(checkpoint_path, hyperparams, scenario,
                                    iteration=iteration + 1, rng=rng,
                                    generator=generator, mean=mean, std=std,
                                    result=result)

        return result

    # ------------------------------------------------------------------
    # Per-generation snapshots
    # ------------------------------------------------------------------
    def _snapshot_fingerprint(self, hyperparams: PolicyHyperparams,
                              scenario: Scenario) -> tuple:
        """Identity a snapshot must match to be resumed by this trainer.

        Covers everything that shapes a training run: the settings, the
        seed (it drives both the parameter sampling and the arena
        stream), the template point and the scenario.  The engine stays
        in it, so snapshots written by earlier versions still match.
        """
        return (("cem", self.population_size, self.elite_count,
                 self.episodes_per_candidate, self.iterations,
                 float(self.initial_std), int(self.seed), str(self.engine)),
                (hyperparams.num_layers, hyperparams.num_filters),
                scenario.value)

    def _load_snapshot(self, checkpoint_path, hyperparams: PolicyHyperparams,
                       scenario: Scenario) -> Optional[dict]:
        from repro.core.checkpoint import load_pickle
        snapshot = load_pickle(checkpoint_path)
        if snapshot is None:
            return None
        expected = self._snapshot_fingerprint(hyperparams, scenario)
        if snapshot.get("fingerprint") != expected:
            raise CheckpointError(
                f"CEM snapshot {checkpoint_path} was written by a different "
                "trainer configuration; refusing to resume from it")
        return snapshot

    def _save_snapshot(self, checkpoint_path,
                       hyperparams: PolicyHyperparams, scenario: Scenario,
                       iteration: int, **state) -> None:
        from repro.core.checkpoint import atomic_write_pickle
        payload = {"fingerprint": self._snapshot_fingerprint(hyperparams,
                                                             scenario),
                   "iteration": iteration}
        payload.update(state)
        atomic_write_pickle(checkpoint_path, payload)
