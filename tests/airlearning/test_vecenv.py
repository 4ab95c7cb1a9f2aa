"""Semantics of the vectorised lockstep navigation environment."""

import dataclasses

import numpy as np
import pytest

from repro.airlearning.arena import ArenaGenerator, Obstacle
from repro.airlearning.env import MAX_EPISODE_STEPS, NavigationEnv
from repro.airlearning.scenarios import Scenario
from repro.airlearning.vecenv import VecNavigationEnv
from repro.errors import ConfigError, SimulationError


def make_arenas(count, scenario=Scenario.LOW, seed=0):
    generator = ArenaGenerator(scenario, seed=seed)
    return [generator.generate() for _ in range(count)]


def blocked(arena):
    """``arena`` with an obstacle on its start: the episode ends in a
    collision at its first step."""
    x, y = arena.start
    return dataclasses.replace(
        arena, obstacles=arena.obstacles + (Obstacle(x, y, 1.0),))


#: Action 0 hovers (zero speed) while turning, so an episode in a free
#: arena runs until the step limit.
HOVER = 0


class TestConstruction:
    def test_rejects_empty_schedules(self):
        with pytest.raises(ConfigError):
            VecNavigationEnv([])

    def test_rejects_mixed_arena_sizes(self):
        import dataclasses
        arena = make_arenas(1)[0]
        grown = dataclasses.replace(arena, size_m=arena.size_m * 2)
        with pytest.raises(ConfigError):
            VecNavigationEnv([arena, grown])

    def test_observation_dim_matches_scalar_env(self):
        env = VecNavigationEnv(make_arenas(2))
        scalar = NavigationEnv(Scenario.LOW, seed=0)
        assert env.observation_dim == scalar.observation_dim
        assert env.num_actions == scalar.num_actions


class TestStepProtocol:
    def test_step_before_reset_raises(self):
        env = VecNavigationEnv(make_arenas(2))
        with pytest.raises(SimulationError):
            env.step(np.zeros(2, dtype=int))

    def test_bad_action_shape_rejected(self):
        env = VecNavigationEnv(make_arenas(2))
        env.reset()
        with pytest.raises(ConfigError):
            env.step(np.zeros(3, dtype=int))

    def test_out_of_range_action_rejected(self):
        env = VecNavigationEnv(make_arenas(2))
        env.reset()
        with pytest.raises(ConfigError):
            env.step(np.array([0, env.num_actions]))

    def test_step_after_exhaustion_raises(self):
        env = VecNavigationEnv(make_arenas(1), max_steps=1)
        env.reset()
        env.step(np.array([0]))
        assert env.all_done
        with pytest.raises(SimulationError):
            env.step(np.array([0]))


class TestLockstepSemantics:
    def test_reset_observations_match_scalar(self):
        arenas = make_arenas(3)
        env = VecNavigationEnv(arenas)
        observations = env.reset()
        for lane, arena in enumerate(arenas):
            scalar = NavigationEnv(Scenario.LOW, seed=0)
            scalar_obs = scalar.reset(arena=arena)
            np.testing.assert_array_equal(observations[lane], scalar_obs)

    def test_max_steps_terminates_episode(self):
        free, other = make_arenas(2)
        env = VecNavigationEnv([blocked(other), free], max_steps=3)
        env.reset()
        first = env.step(np.full(2, HOVER))
        assert first.dones.tolist() == [True, False]
        for _ in range(2):
            assert not env.all_done
            result = env.step(np.full(2, HOVER))
        assert env.all_done
        assert result.dones.tolist() == [False, True]
        assert not result.collisions[1] and not result.successes[1]
        assert env.lane_collisions.tolist() == [True, False]
        assert env.lane_successes.tolist() == [False, False]

    def test_inactive_lane_is_masked(self):
        arena, other = make_arenas(2)
        env = VecNavigationEnv([blocked(arena), other], max_steps=2)
        env.reset()
        first = env.step(np.full(2, HOVER))
        assert first.dones.tolist() == [True, False]
        assert env.active_lanes.tolist() == [False, True]
        second = env.step(np.full(2, HOVER))
        assert second.active.tolist() == [False, True]
        assert second.rewards[0] == 0.0
        assert second.dones.tolist() == [False, True]
        assert env.all_done

    def test_total_env_steps_counts_active_lanes_only(self):
        arena, other = make_arenas(2)
        env = VecNavigationEnv([blocked(arena), other], max_steps=2)
        env.reset()
        env.step(np.full(2, HOVER))
        env.step(np.full(2, HOVER))
        assert env.total_env_steps == 3  # 2 active, then 1 active

    def test_default_max_steps_matches_scalar(self):
        env = VecNavigationEnv(make_arenas(1))
        assert env.max_steps == MAX_EPISODE_STEPS
