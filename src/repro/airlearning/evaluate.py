"""Policy rollouts and validation in held-out randomised arenas.

Phase 1 validates each trained policy in domain-randomised environments
before it enters the Air Learning database; :func:`validate_policy`
performs that evaluation with a seed disjoint from training.

Training and validation share one rollout function per engine, with one
signature: ``(hyperparams, generator, sensor, parameter rows, episodes
per row) -> (mean returns, successes, collisions, steps)``, each per row
but the step count.  ``vec`` (:func:`vec_rollouts`, the default) runs
every (row, episode) pair as one lane of the batched lockstep engine;
``scalar`` (:func:`scalar_rollouts`) is the sequential loop retained as
the correctness oracle.  Both are bit-equivalent under a fixed seed:
they consume the same arenas in the same order, run the same per-step
kernels, and fold each row's return in the sequential loop's exact
accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.airlearning.arena import ArenaGenerator
from repro.airlearning.env import NavigationEnv
from repro.airlearning.policy import BatchedMlpPolicy, MlpPolicy
from repro.airlearning.scenarios import Scenario
from repro.airlearning.sensors import RaycastSensor
from repro.airlearning.vecenv import VecNavigationEnv
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams

#: Offset keeping validation arenas disjoint from training arenas.
VALIDATION_SEED_OFFSET = 10_000

#: Per-row mean returns, success counts and collision counts, plus the
#: number of environment steps executed.
Rollouts = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def vec_rollouts(hyperparams: PolicyHyperparams, generator: ArenaGenerator,
                 sensor: RaycastSensor, params_rows: np.ndarray,
                 episodes_per_row: int) -> Rollouts:
    """Roll out ``episodes_per_row`` episodes per parameter row in lockstep.

    Every (row, episode) pair gets its own lane, so lockstep depth is
    one episode, not a whole row's episode budget.  Arenas are drawn
    row-major, and each row's return is folded in episode then step
    order, so the result is bit-identical to :func:`scalar_rollouts`.
    """
    rows = params_rows.shape[0]
    arenas = [generator.generate() for _ in range(rows * episodes_per_row)]
    env = VecNavigationEnv(arenas, sensor=sensor,
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
    for row in range(rows):
        total = 0.0
        for lane in range(row * episodes_per_row,
                          (row + 1) * episodes_per_row):
            for value in rewards[active[:, lane], lane].tolist():
                total += value
        returns[row] = total / episodes_per_row
    per_row = (rows, episodes_per_row)
    return (returns, env.lane_successes.reshape(per_row).sum(axis=1),
            env.lane_collisions.reshape(per_row).sum(axis=1),
            env.total_env_steps)


def scalar_rollouts(hyperparams: PolicyHyperparams,
                    generator: ArenaGenerator, sensor: RaycastSensor,
                    params_rows: np.ndarray,
                    episodes_per_row: int) -> Rollouts:
    """The sequential rollout loop: one row, one episode at a time."""
    env = NavigationEnv(generator.spec, sensor=sensor)
    policy = MlpPolicy(hyperparams, env.observation_dim, env.num_actions)
    rows = params_rows.shape[0]
    returns = np.empty(rows)
    successes = np.zeros(rows, dtype=np.int64)
    collisions = np.zeros(rows, dtype=np.int64)
    steps = 0
    for row, params in enumerate(params_rows):
        policy.set_params(params)
        total = 0.0
        for _ in range(episodes_per_row):
            obs = env.reset(arena=generator.generate())
            done = False
            while not done:
                step = env.step(policy.act(obs))
                obs = step.observation
                total += step.reward
                steps += 1
                done = step.done
            successes[row] += step.success
            collisions[row] += step.collided
        returns[row] = total / episodes_per_row
    return returns, successes, collisions, steps


#: The rollout function of each engine.
ROLLOUTS: Dict[str, Callable[..., Rollouts]] = {"vec": vec_rollouts,
                                                "scalar": scalar_rollouts}


def check_engine(engine: str) -> None:
    """Raise :class:`ConfigError` unless ``engine`` names a rollout engine."""
    if engine not in ROLLOUTS:
        raise ConfigError(
            f"engine must be one of {tuple(ROLLOUTS)}, got {engine!r}")


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one policy."""

    episodes: int
    successes: int
    collisions: int
    mean_return: float
    #: Environment transitions executed during validation.
    env_steps: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of successful episodes."""
        if self.episodes == 0:
            return 0.0
        return self.successes / self.episodes


def validate_policy(policy: MlpPolicy, scenario: Scenario,
                    episodes: int = 20, seed: int = 0,
                    engine: str = "vec") -> ValidationResult:
    """Run held-out episodes and report the success rate."""
    if episodes < 1:
        raise ConfigError("episodes must be positive")
    check_engine(engine)
    generator = ArenaGenerator(scenario, seed=seed + VALIDATION_SEED_OFFSET)
    returns, successes, collisions, steps = ROLLOUTS[engine](
        policy.hyperparams, generator, RaycastSensor(),
        policy.get_params()[None, :], episodes)
    return ValidationResult(episodes=episodes,
                            successes=int(successes[0]),
                            collisions=int(collisions[0]),
                            mean_return=float(returns[0]),
                            env_steps=steps)
