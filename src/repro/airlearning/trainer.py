"""Cross-entropy-method (CEM) policy trainer.

Air Learning trains its policies with deep RL on GPUs over days; the
simulator substitute uses the cross-entropy method -- a derivative-free
evolutionary strategy that is a standard strong baseline for
low-dimensional control -- so the full train -> validate -> database
code path runs in seconds.  The trainer is deterministic under its seed.

Two rollout engines back the trainer:

* ``vec`` (default): the batched lockstep engine
  (:class:`~repro.airlearning.vecenv.VecNavigationEnv` +
  :class:`~repro.airlearning.policy.BatchedMlpPolicy`) steps the whole
  population at once over NumPy state arrays;
* ``scalar``: the original one-candidate-one-episode loop, retained as
  the correctness oracle.

Both engines are bit-equivalent under a fixed seed: arenas are consumed
from one generator in the same order, every per-step kernel performs
the same elementary operations, and candidate returns are folded in the
scalar loop's exact accumulation order.

Training results can additionally be cached content-addressed in the
shared evaluation cache (``cache=True``), keyed on the hyper-parameters,
scenario and full trainer configuration including the seed, so repeated
pipeline runs never retrain an identical configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.airlearning.arena import ArenaGenerator
from repro.airlearning.dynamics import NUM_ACTIONS
from repro.airlearning.env import NavigationEnv
from repro.airlearning.policy import BatchedMlpPolicy, MlpPolicy
from repro.airlearning.scenarios import Scenario
from repro.airlearning.sensors import RaycastSensor
from repro.airlearning.vecenv import VecNavigationEnv
from repro.errors import CheckpointError, ConfigError
from repro.nn.template import PolicyHyperparams

#: Rollout engines selectable per trainer.
ROLLOUT_ENGINES = ("vec", "scalar")


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

    @property
    def final_success_rate(self) -> float:
        """Training-time success rate of the last iteration's mean policy."""
        return self.success_rate_trace[-1] if self.success_rate_trace else 0.0


class CemTrainer:
    """Cross-entropy method over the flat policy parameter vector."""

    def __init__(self, population_size: int = 24, elite_fraction: float = 0.25,
                 episodes_per_candidate: int = 3, iterations: int = 15,
                 initial_std: float = 0.5, seed: int = 0,
                 engine: str = "vec", cache: bool = False):
        if population_size < 4:
            raise ConfigError("population_size must be at least 4")
        if not 0.0 < elite_fraction <= 1.0:
            raise ConfigError("elite_fraction must be in (0, 1]")
        if episodes_per_candidate < 1 or iterations < 1:
            raise ConfigError("episodes and iterations must be positive")
        if engine not in ROLLOUT_ENGINES:
            raise ConfigError(
                f"engine must be one of {ROLLOUT_ENGINES}, got {engine!r}")
        self.population_size = population_size
        self.elite_count = max(2, int(round(population_size * elite_fraction)))
        self.episodes_per_candidate = episodes_per_candidate
        self.iterations = iterations
        self.initial_std = initial_std
        self.seed = seed
        self.engine = engine
        self.cache = cache

    @classmethod
    def from_settings(cls, settings: Mapping[str, Any], seed: int = 0,
                      cache: bool = False) -> "CemTrainer":
        """Inverse of :meth:`settings`; keys left out take the defaults.

        Raises:
            ConfigError: on an invalid setting.
            TypeError: on an unknown setting.
        """
        kwargs = dict(settings)
        elite_count = kwargs.pop("elite_count", None)
        trainer = cls(seed=seed, cache=cache, **kwargs)
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
                "initial_std": self.initial_std,
                "engine": self.engine}

    def train(self, hyperparams: PolicyHyperparams,
              scenario: Scenario,
              checkpoint_path: Optional[Union[str, os.PathLike]] = None
              ) -> TrainingResult:
        """Train one policy for one scenario; deterministic under seed.

        With ``cache=True``, an identical (hyperparams, scenario,
        trainer-config) training run is served from the shared
        content-addressed cache instead of re-running; callers must
        treat the returned result as immutable.

        With ``checkpoint_path`` set, the full per-generation state
        (RNG, arena stream, distribution, traces) is snapshotted
        atomically after every CEM iteration; a later call with the
        same configuration and path resumes from the last completed
        iteration and produces a bit-identical result.  A snapshot
        written by a *different* configuration raises
        :class:`~repro.errors.CheckpointError`; an unreadable snapshot
        is quarantined and training restarts from scratch.
        """
        if not self.cache:
            return self._train(hyperparams, scenario, checkpoint_path)
        # Imported lazily: repro.core.evalcache pulls in repro.core's
        # package init, which imports this module back (via phase1).
        from repro.core.evalcache import shared_report_cache, training_key
        cache = shared_report_cache()
        key = training_key(self, hyperparams, scenario)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._train(hyperparams, scenario, checkpoint_path)
        cache.put(key, result)
        return result

    def _train(self, hyperparams: PolicyHyperparams, scenario: Scenario,
               checkpoint_path: Optional[Union[str, os.PathLike]] = None
               ) -> TrainingResult:
        if self.engine == "vec":
            return self._train_vec(hyperparams, scenario, checkpoint_path)
        return self._train_scalar(hyperparams, scenario, checkpoint_path)

    # ------------------------------------------------------------------
    # Per-generation snapshots
    # ------------------------------------------------------------------
    def _snapshot_fingerprint(self, hyperparams: PolicyHyperparams,
                              scenario: Scenario) -> tuple:
        """Identity a snapshot must match to be resumed by this trainer."""
        from repro.core.evalcache import trainer_fingerprint
        return (trainer_fingerprint(self),
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

    # ------------------------------------------------------------------
    # Vectorised engine
    # ------------------------------------------------------------------
    def _train_vec(self, hyperparams: PolicyHyperparams, scenario: Scenario,
                   checkpoint_path: Optional[Union[str, os.PathLike]] = None
                   ) -> TrainingResult:
        rng = np.random.default_rng(self.seed)
        # One generator for the whole run, like the scalar engine's
        # single NavigationEnv: arenas are consumed in candidate-major
        # order (population episodes first, then the mean evaluation).
        generator = ArenaGenerator(scenario, seed=self.seed)
        sensor = RaycastSensor()
        observation_dim = sensor.num_rays + 4
        probe = MlpPolicy(hyperparams, observation_dim, NUM_ACTIONS)
        num_params = probe.num_params

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
                generator = snapshot["generator"]
                mean = snapshot["mean"]
                std = snapshot["std"]
                result = snapshot["result"]

        for iteration in range(start_iteration, self.iterations):
            population = rng.normal(mean, std,
                                    size=(self.population_size, num_params))
            returns, successes, steps = self._vec_rollouts(
                hyperparams, generator, sensor, population,
                self.episodes_per_candidate)
            result.env_steps += steps

            elite_idx = np.argsort(-returns)[:self.elite_count]
            elites = population[elite_idx]
            mean = elites.mean(axis=0)
            std = elites.std(axis=0) + 0.02  # noise floor keeps exploring

            mean_returns, mean_successes, steps = self._vec_rollouts(
                hyperparams, generator, sensor, mean[None, :],
                self.episodes_per_candidate * 2)
            result.env_steps += steps
            result.mean_return_trace.append(float(mean_returns[0]))
            result.success_rate_trace.append(float(mean_successes[0]))
            result.best_params = mean.copy()

            if checkpoint_path is not None:
                self._save_snapshot(checkpoint_path, hyperparams, scenario,
                                    iteration=iteration + 1, rng=rng,
                                    generator=generator, mean=mean, std=std,
                                    result=result)

        return result

    @staticmethod
    def _vec_rollouts(hyperparams: PolicyHyperparams,
                      generator: ArenaGenerator, sensor: RaycastSensor,
                      params_rows: np.ndarray, episodes_per_row: int
                      ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Roll out ``episodes_per_row`` episodes per parameter row.

        Every (row, episode) pair gets its own lane, so lockstep depth
        is one episode, not a whole candidate's episode budget.  Returns
        per-row mean return and success rate plus the executed step
        count.  Mean returns are folded in the scalar loop's exact
        order (row-major, episode order, step order) so the result is
        bit-identical to the serial accumulation.
        """
        rows = params_rows.shape[0]
        lanes = rows * episodes_per_row
        arenas = [generator.generate() for _ in range(lanes)]
        env = VecNavigationEnv([[arena] for arena in arenas], sensor=sensor,
                               wind=generator.spec.wind_vector,
                               sensor_noise=generator.spec.sensor_noise)
        policy = BatchedMlpPolicy(
            hyperparams, env.observation_dim, env.num_actions,
            np.repeat(params_rows, episodes_per_row, axis=0))

        observations = env.reset()
        reward_history: List[np.ndarray] = []
        active_history: List[np.ndarray] = []
        while not env.all_done:
            step = env.step(policy.act(observations))
            observations = step.observations
            reward_history.append(step.rewards)
            active_history.append(step.active)

        rewards = np.asarray(reward_history)        # (T, lanes)
        active = np.asarray(active_history)
        returns = np.empty(rows)
        success_rates = np.empty(rows)
        for row in range(rows):
            total = 0.0
            for episode in range(episodes_per_row):
                lane = row * episodes_per_row + episode
                for value in rewards[active[:, lane], lane].tolist():
                    total += value
            lanes_of_row = slice(row * episodes_per_row,
                                 (row + 1) * episodes_per_row)
            returns[row] = total / episodes_per_row
            success_rates[row] = (int(env.lane_successes[lanes_of_row].sum())
                                  / episodes_per_row)
        return returns, success_rates, env.total_env_steps

    # ------------------------------------------------------------------
    # Scalar engine (correctness oracle)
    # ------------------------------------------------------------------
    def _train_scalar(self, hyperparams: PolicyHyperparams,
                      scenario: Scenario,
                      checkpoint_path: Optional[Union[str,
                                                      os.PathLike]] = None
                      ) -> TrainingResult:
        rng = np.random.default_rng(self.seed)
        env = NavigationEnv(scenario, seed=self.seed)
        policy = MlpPolicy(hyperparams, env.observation_dim, env.num_actions)

        mean = np.zeros(policy.num_params)
        std = np.full(policy.num_params, self.initial_std)
        result = TrainingResult(hyperparams=hyperparams, scenario=scenario,
                                best_params=mean.copy())

        start_iteration = 0
        if checkpoint_path is not None:
            snapshot = self._load_snapshot(checkpoint_path, hyperparams,
                                           scenario)
            if snapshot is not None:
                start_iteration = snapshot["iteration"]
                rng = snapshot["rng"]
                env = snapshot["env"]
                mean = snapshot["mean"]
                std = snapshot["std"]
                result = snapshot["result"]

        for iteration in range(start_iteration, self.iterations):
            population = rng.normal(mean, std,
                                    size=(self.population_size,
                                          policy.num_params))
            returns = np.empty(self.population_size)
            successes = np.zeros(self.population_size)
            for i, candidate in enumerate(population):
                policy.set_params(candidate)
                returns[i], successes[i], steps = self._rollouts(
                    env, policy, self.episodes_per_candidate)
                result.env_steps += steps

            elite_idx = np.argsort(-returns)[:self.elite_count]
            elites = population[elite_idx]
            mean = elites.mean(axis=0)
            std = elites.std(axis=0) + 0.02  # noise floor keeps exploring

            policy.set_params(mean)
            mean_return, mean_success, steps = self._rollouts(
                env, policy, self.episodes_per_candidate * 2)
            result.env_steps += steps
            result.mean_return_trace.append(mean_return)
            result.success_rate_trace.append(mean_success)
            result.best_params = mean.copy()

            if checkpoint_path is not None:
                self._save_snapshot(checkpoint_path, hyperparams, scenario,
                                    iteration=iteration + 1, rng=rng,
                                    env=env, mean=mean, std=std,
                                    result=result)

        return result

    @staticmethod
    def _rollouts(env: NavigationEnv, policy: MlpPolicy,
                  episodes: int) -> Tuple[float, float, int]:
        total_return = 0.0
        total_success = 0
        steps = 0
        for _ in range(episodes):
            obs = env.reset()
            done = False
            while not done:
                step = env.step(policy.act(obs))
                obs = step.observation
                total_return += step.reward
                steps += 1
                done = step.done
                if done and step.success:
                    total_success += 1
        return total_return / episodes, total_success / episodes, steps
