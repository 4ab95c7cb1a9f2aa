"""Vectorised lockstep navigation environment (batched rollout engine).

Phase 1's CEM trainer evaluates a whole population of policies per
iteration; the scalar :class:`~repro.airlearning.env.NavigationEnv`
steps one candidate, one episode, one Python-level raycast at a time.
This module steps *all* lanes of a batch in lockstep over NumPy state
arrays — positions, headings, per-lane padded obstacle arrays — with
vectorised collision/reward/done bookkeeping and broadcast raycasts
(:meth:`RaycastSensor.sense_batch`).

Semantics match :class:`NavigationEnv` **bit-for-bit**: every per-step
computation uses the same elementary operations in the same order, and
the shared kernels (``np.cos``/``sin``/``sqrt``/``arctan2``/``mod``,
stacked GEMMs) are length-independent, so a lane of the vectorised
environment reproduces the scalar environment's observations, rewards
and termination flags exactly.  The scalar path therefore remains the
correctness oracle the equivalence test suite checks this engine
against.

Each lane runs one episode in its own arena.  When a lane's episode
ends the lane goes inactive and is masked out of all bookkeeping, so a
rollout of ``N`` episodes is ``N`` lanes stepped until every one is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.airlearning.arena import Arena
from repro.airlearning.dynamics import (
    NUM_ACTIONS,
    PointMassDynamics,
    SPEED_LEVELS,
    YAW_RATE_LEVELS,
)
from repro.airlearning.env import (
    COLLISION_PENALTY,
    GOAL_RADIUS_M,
    MAX_EPISODE_STEPS,
    PROGRESS_REWARD,
    STEP_COST,
    SUCCESS_REWARD,
)
from repro.airlearning.sensors import RaycastSensor, apply_sensor_noise
from repro.errors import ConfigError, SimulationError

#: UAV body margin used by :meth:`Arena.collides` (its default argument).
COLLISION_MARGIN_M = 0.15

_SPEEDS = np.asarray(SPEED_LEVELS)
_YAW_RATES = np.asarray(YAW_RATE_LEVELS)
_TWO_PI = 2.0 * math.pi


def step_lanes_kernel(act: np.ndarray, speed: np.ndarray,
                      heading: np.ndarray, x: np.ndarray, y: np.ndarray,
                      steps: np.ndarray, prev_goal: np.ndarray,
                      goal_x: np.ndarray, goal_y: np.ndarray,
                      obstacle_x: np.ndarray, obstacle_y: np.ndarray,
                      obstacle_r: np.ndarray, obstacle_mask: np.ndarray, *,
                      alpha: float, dt: float, size_m: float,
                      max_steps: int, wind_x: float = 0.0,
                      wind_y: float = 0.0):
    """One lockstep transition over gathered lane rows (pure function).

    Inputs are the *pre-step* rows for the active lanes (``steps`` is
    the counter before this transition), outputs are the post-step
    state columns plus the reward/termination flags, in the order
    ``(speed, heading, x, y, goal_distance, reward, collided, success,
    done)``.  Every output row depends only on its own input row.

    ``wind_x``/``wind_y`` add the scenario's steady wind drift after
    the commanded motion; at the 0.0 default the arithmetic is skipped
    entirely, leaving legacy float streams byte-identical.
    """
    # Dynamics — identical op order to PointMassDynamics.step.
    command_speed = _SPEEDS[act // len(YAW_RATE_LEVELS)]
    yaw_rate = _YAW_RATES[act % len(YAW_RATE_LEVELS)]
    new_speed = speed + alpha * (command_speed - speed)
    new_heading = (heading + yaw_rate * dt) % _TWO_PI
    new_x = x + new_speed * np.cos(new_heading) * dt
    new_y = y + new_speed * np.sin(new_heading) * dt
    if wind_x != 0.0 or wind_y != 0.0:
        # Same op order as the scalar NavigationEnv wind drift.
        new_x = new_x + wind_x * dt
        new_y = new_y + wind_y * dt

    # Collision — Arena.collides with the default body margin.
    margin = COLLISION_MARGIN_M
    inside = ((margin <= new_x) & (new_x <= size_m - margin)
              & (margin <= new_y) & (new_y <= size_m - margin))
    dxo = obstacle_x - new_x[:, None]
    dyo = obstacle_y - new_y[:, None]
    clearance = np.sqrt(dxo * dxo + dyo * dyo) - obstacle_r
    obstacle_hit = ((clearance <= margin) & obstacle_mask).any(axis=1)
    collided = ~inside | obstacle_hit

    gdx = goal_x - new_x
    gdy = goal_y - new_y
    goal_distance = np.sqrt(gdx * gdx + gdy * gdy)
    success = (goal_distance <= GOAL_RADIUS_M) & ~collided

    reward = STEP_COST + PROGRESS_REWARD * (prev_goal - goal_distance)
    reward = np.where(collided, reward + COLLISION_PENALTY, reward)
    reward = np.where(success, reward + SUCCESS_REWARD, reward)

    done = collided | success | ((steps + 1) >= max_steps)
    return (new_speed, new_heading, new_x, new_y, goal_distance, reward,
            collided, success, done)


def observe_lanes_kernel(sensor: RaycastSensor, size_m: float,
                         x: np.ndarray, y: np.ndarray, heading: np.ndarray,
                         speed: np.ndarray, goal_x: np.ndarray,
                         goal_y: np.ndarray, obstacle_x: np.ndarray,
                         obstacle_y: np.ndarray, obstacle_r: np.ndarray,
                         obstacle_mask: np.ndarray, *,
                         noise: float = 0.0) -> np.ndarray:
    """Fresh observation rows for gathered lanes (pure function).

    ``NavigationEnv._observe`` batched over the given lane rows.  Each
    returned row is a pure function of its own lane's state.

    ``noise`` applies the scenario's deterministic sensor perturbation
    (:func:`~repro.airlearning.sensors.apply_sensor_noise`); the 0.0
    default skips it, keeping legacy observations byte-identical.
    """
    rays = sensor.sense_batch(size_m, x, y, heading, obstacle_x,
                              obstacle_y, obstacle_r, obstacle_mask)
    if noise != 0.0:
        rays = apply_sensor_noise(rays, noise, x, y)
    gdx = goal_x - x
    gdy = goal_y - y
    distance = np.sqrt(gdx * gdx + gdy * gdy)
    bearing = np.arctan2(gdy, gdx) - heading
    rows = np.empty((x.shape[0], sensor.num_rays + 4))
    rows[:, :sensor.num_rays] = rays
    rows[:, -4] = np.cos(bearing)
    rows[:, -3] = np.sin(bearing)
    rows[:, -2] = np.minimum(1.0, distance / size_m)
    rows[:, -1] = speed / 2.0
    return rows


@dataclass
class VecStepResult:
    """One lockstep transition for every lane.

    ``observations`` rows of lanes whose episode has ended (this step or
    earlier) are stale and must be ignored.
    """

    observations: np.ndarray  #: (L, obs_dim)
    rewards: np.ndarray       #: (L,) — 0.0 for lanes that did not step
    dones: np.ndarray         #: (L,) bool — episode ended this step
    successes: np.ndarray     #: (L,) bool — episode ended in success
    collisions: np.ndarray    #: (L,) bool — episode ended in collision
    active: np.ndarray        #: (L,) bool — lane actually stepped


class VecNavigationEnv:
    """Point-to-goal navigation for a batch of lanes in lockstep.

    Args:
        arenas: One arena per lane; lane ``i`` runs one episode in
            ``arenas[i]``.  Generate the arenas in the scalar rollout's
            consumption order to reproduce its results exactly.
        sensor: Shared raycast sensor (defaults to the scalar default).
        max_steps: Per-episode step limit.
        dynamics: Point-mass dynamics supplying ``dt``/``speed_tau``.
        wind: Steady world-frame wind velocity ``(wx, wy)`` shared by
            every lane (the scenario's
            :attr:`~repro.airlearning.scenarios.ScenarioSpec.wind_vector`);
            the zero default skips the wind arithmetic entirely.
        sensor_noise: Deterministic sensor-noise amplitude shared by
            every lane; zero skips the perturbation.
    """

    def __init__(self, arenas: Sequence[Arena],
                 sensor: Optional[RaycastSensor] = None,
                 max_steps: int = MAX_EPISODE_STEPS,
                 dynamics: Optional[PointMassDynamics] = None,
                 wind: Sequence[float] = (0.0, 0.0),
                 sensor_noise: float = 0.0):
        if not arenas:
            raise ConfigError("need at least one arena")
        self._arenas = list(arenas)
        sizes = {a.size_m for a in self._arenas}
        if len(sizes) != 1:
            raise ConfigError("all arenas must share one size")
        self.size_m = sizes.pop()
        self.sensor = sensor or RaycastSensor()
        self.dynamics = dynamics or PointMassDynamics()
        self.max_steps = max_steps
        # The scalar dynamics recompute dt / (speed_tau + dt) each step;
        # the expression is constant, so hoisting it is bit-neutral.
        self._alpha = self.dynamics.dt / (self.dynamics.speed_tau
                                          + self.dynamics.dt)
        self._wind_x, self._wind_y = (float(wind[0]), float(wind[1]))
        self._sensor_noise = float(sensor_noise)

        self.num_lanes = len(self._arenas)
        self._max_obstacles = max(len(a.obstacles) for a in self._arenas)
        self._was_reset = False

        shape = (self.num_lanes,)
        self._x = np.zeros(shape)
        self._y = np.zeros(shape)
        self._heading = np.zeros(shape)
        self._speed = np.zeros(shape)
        self._steps = np.zeros(shape, dtype=np.int64)
        self._prev_goal = np.zeros(shape)
        self._goal_x = np.zeros(shape)
        self._goal_y = np.zeros(shape)
        self._active = np.zeros(shape, dtype=bool)

        pad = (self.num_lanes, self._max_obstacles)
        self._obstacle_x = np.zeros(pad)
        self._obstacle_y = np.zeros(pad)
        self._obstacle_r = np.zeros(pad)
        self._obstacle_mask = np.zeros(pad, dtype=bool)
        self._observations = np.zeros((self.num_lanes,
                                       self.observation_dim))

        #: Whether each lane's episode ended in success / collision.
        self.lane_successes = np.zeros(shape, dtype=bool)
        self.lane_collisions = np.zeros(shape, dtype=bool)
        #: Total (lane, step) transitions executed so far.
        self.total_env_steps = 0

    # ------------------------------------------------------------------
    @property
    def num_actions(self) -> int:
        """Size of the discrete action set."""
        return NUM_ACTIONS

    @property
    def observation_dim(self) -> int:
        """Length of each lane's observation vector."""
        return self.sensor.num_rays + 4

    @property
    def active_lanes(self) -> np.ndarray:
        """Boolean mask of lanes still running an episode (copy)."""
        return self._active.copy()

    @property
    def all_done(self) -> bool:
        """Whether every lane's episode has ended."""
        return not self._active.any()

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Load every lane's arena; returns observations (L, D)."""
        for lane, arena in enumerate(self._arenas):
            self._load_lane(lane, arena)
        self._active[:] = True
        self.lane_successes[:] = False
        self.lane_collisions[:] = False
        self._was_reset = True
        return self._observe_all()

    def step(self, actions: np.ndarray) -> VecStepResult:
        """Advance every active lane one control interval in lockstep.

        Work is *compacted* to the active lanes: every kernel runs on
        gathered rows and results are scattered back, so the cost of a
        lockstep iteration tracks the number of live episodes, not the
        batch width.  Gathering rows is bit-neutral -- all per-step
        kernels are elementwise per lane or reduce along per-lane axes.
        """
        if not self._was_reset:
            raise SimulationError("step() called before reset()")
        if self.all_done:
            raise SimulationError("step() called with every episode ended")
        actions = np.asarray(actions)
        if actions.shape != (self.num_lanes,):
            raise ConfigError(
                f"expected {self.num_lanes} actions, got {actions.shape}")
        active = self._active.copy()
        lanes = np.flatnonzero(active)
        act = actions[lanes].astype(np.int64)
        if ((act < 0) | (act >= NUM_ACTIONS)).any():
            raise ConfigError(f"actions must be in [0, {NUM_ACTIONS})")

        # The per-step arithmetic lives in step_lanes_kernel; the env
        # keeps the state scatter and episode bookkeeping.
        (speed, heading, x, y, goal_distance, reward, collided, success,
         done) = step_lanes_kernel(
            act, self._speed[lanes], self._heading[lanes],
            self._x[lanes], self._y[lanes], self._steps[lanes],
            self._prev_goal[lanes], self._goal_x[lanes],
            self._goal_y[lanes], self._obstacle_x[lanes],
            self._obstacle_y[lanes], self._obstacle_r[lanes],
            self._obstacle_mask[lanes],
            alpha=self._alpha, dt=self.dynamics.dt, size_m=self.size_m,
            max_steps=self.max_steps, wind_x=self._wind_x,
            wind_y=self._wind_y)
        self._speed[lanes] = speed
        self._heading[lanes] = heading
        self._x[lanes] = x
        self._y[lanes] = y
        self._steps[lanes] += 1
        self._prev_goal[lanes] = goal_distance
        self.total_env_steps += lanes.size

        # Scatter the compact results back to batch width.
        shape = (self.num_lanes,)
        full_reward = np.zeros(shape)
        full_reward[lanes] = reward
        full_done = np.zeros(shape, dtype=bool)
        full_done[lanes] = done
        full_success = np.zeros(shape, dtype=bool)
        full_success[lanes] = success
        full_collided = np.zeros(shape, dtype=bool)
        full_collided[lanes] = collided

        # Episode-end bookkeeping: record the outcome, retire the lane.
        finished = lanes[done]
        self.lane_successes[finished] = success[done]
        self.lane_collisions[finished] = collided[done]
        self._active[finished] = False

        return VecStepResult(
            observations=self._observe_all(np.flatnonzero(self._active)),
            rewards=full_reward,
            dones=full_done,
            successes=full_success,
            collisions=full_collided,
            active=active,
        )

    # ------------------------------------------------------------------
    def _load_lane(self, lane: int, arena: Arena) -> None:
        """Reset one lane into its arena (NavigationEnv.reset)."""
        start_x, start_y = arena.start
        self._x[lane] = start_x
        self._y[lane] = start_y
        # Initial heading via math.atan2 exactly as the scalar reset;
        # resets are per-lane scalar code in both engines.
        self._heading[lane] = math.atan2(arena.goal[1] - start_y,
                                         arena.goal[0] - start_x)
        self._speed[lane] = 0.0
        self._steps[lane] = 0
        self._goal_x[lane], self._goal_y[lane] = arena.goal
        self._prev_goal[lane] = arena.goal_distance(start_x, start_y)
        count = len(arena.obstacles)
        self._obstacle_mask[lane, :] = False
        self._obstacle_mask[lane, :count] = True
        for slot, obstacle in enumerate(arena.obstacles):
            self._obstacle_x[lane, slot] = obstacle.x
            self._obstacle_y[lane, slot] = obstacle.y
            self._obstacle_r[lane, slot] = obstacle.radius

    def _observe_all(self, lanes: Optional[np.ndarray] = None) -> np.ndarray:
        """Observations (NavigationEnv._observe, batched).

        With ``lanes`` given, only those rows of the persistent
        observation buffer are refreshed (rows of inactive lanes keep
        their last value -- callers must mask them via ``active``).
        Returns a copy of the full buffer.
        """
        if lanes is None:
            lanes = slice(None)
        rows = observe_lanes_kernel(
            self.sensor, self.size_m, self._x[lanes], self._y[lanes],
            self._heading[lanes], self._speed[lanes],
            self._goal_x[lanes], self._goal_y[lanes],
            self._obstacle_x[lanes], self._obstacle_y[lanes],
            self._obstacle_r[lanes], self._obstacle_mask[lanes],
            noise=self._sensor_noise)
        self._observations[lanes] = rows
        return self._observations.copy()
