"""Bit-equivalence of the vectorised rollout engine vs the scalar oracle.

The vectorised engine is only allowed to be *faster* -- every observation,
reward, termination flag, training trace and validation statistic must be
bit-identical to the retained scalar reference path under the same seed.
These tests enforce that contract at every level: sensor, policy,
environment, trainer and validator.
"""

import numpy as np
import pytest

from repro.airlearning.arena import ArenaGenerator
from repro.airlearning.env import NavigationEnv
from repro.airlearning.evaluate import validate_policy
from repro.airlearning.policy import BatchedMlpPolicy, MlpPolicy
from repro.airlearning.scenarios import ALL_SCENARIOS, Scenario
from repro.airlearning.sensors import RaycastSensor
from repro.airlearning.trainer import CemTrainer
from repro.airlearning.vecenv import VecNavigationEnv
from repro.nn.template import PolicyHyperparams


def pad_obstacles(arenas):
    """Padded per-lane obstacle arrays as VecNavigationEnv builds them."""
    lanes = len(arenas)
    width = max(len(a.obstacles) for a in arenas)
    ox = np.zeros((lanes, width))
    oy = np.zeros((lanes, width))
    orad = np.zeros((lanes, width))
    mask = np.zeros((lanes, width), dtype=bool)
    for lane, arena in enumerate(arenas):
        for slot, obstacle in enumerate(arena.obstacles):
            ox[lane, slot] = obstacle.x
            oy[lane, slot] = obstacle.y
            orad[lane, slot] = obstacle.radius
            mask[lane, slot] = True
    return ox, oy, orad, mask


class TestSensorEquivalence:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_sense_batch_matches_sense(self, scenario):
        sensor = RaycastSensor()
        generator = ArenaGenerator(scenario, seed=3)
        arenas = [generator.generate() for _ in range(6)]
        rng = np.random.default_rng(0)
        size = arenas[0].size_m
        x = rng.uniform(0.5, size - 0.5, len(arenas))
        y = rng.uniform(0.5, size - 0.5, len(arenas))
        heading = rng.uniform(0.0, 2 * np.pi, len(arenas))

        batch = sensor.sense_batch(size, x, y, heading,
                                   *pad_obstacles(arenas))
        for lane, arena in enumerate(arenas):
            scalar = sensor.sense(arena, x[lane], y[lane], heading[lane])
            np.testing.assert_array_equal(batch[lane], scalar)

    def test_single_ray_sensor(self):
        sensor = RaycastSensor(num_rays=1)
        arena = ArenaGenerator(Scenario.LOW, seed=1).generate()
        batch = sensor.sense_batch(
            arena.size_m, np.array([2.0]), np.array([2.0]),
            np.array([0.7]), *pad_obstacles([arena]))
        scalar = sensor.sense(arena, 2.0, 2.0, 0.7)
        np.testing.assert_array_equal(batch[0], scalar)

    def test_obstacle_free_batch(self):
        sensor = RaycastSensor()
        lanes = 3
        batch = sensor.sense_batch(
            10.0, np.full(lanes, 5.0), np.full(lanes, 5.0),
            np.linspace(0, 1, lanes),
            np.zeros((lanes, 0)), np.zeros((lanes, 0)),
            np.zeros((lanes, 0)), np.zeros((lanes, 0), dtype=bool))
        assert batch.shape == (lanes, sensor.num_rays)
        assert (batch <= 1.0).all() and (batch >= 0.0).all()


class TestPolicyEquivalence:
    @pytest.mark.parametrize("layers,filters", [(2, 32), (3, 48), (5, 64)])
    def test_batched_logits_match_scalar(self, layers, filters):
        hyperparams = PolicyHyperparams(layers, filters)
        scalar = MlpPolicy(hyperparams, 16, 25)
        rng = np.random.default_rng(7)
        lanes = 9
        params = rng.normal(size=(lanes, scalar.num_params))
        batched = BatchedMlpPolicy(hyperparams, 16, 25, params)
        observations = rng.normal(size=(lanes, 16))
        logits = batched.action_logits(observations)
        actions = batched.act(observations)
        for lane in range(lanes):
            scalar.set_params(params[lane])
            expected = scalar.action_logits(observations[lane])
            np.testing.assert_array_equal(logits[lane], expected)
            assert actions[lane] == scalar.act(observations[lane])


class TestEnvEquivalence:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_lockstep_episode_matches_scalar(self, scenario):
        generator = ArenaGenerator(scenario, seed=5)
        arenas = [generator.generate() for _ in range(4)]
        env = VecNavigationEnv(arenas)
        observations = env.reset()

        scalars = []
        for lane, arena in enumerate(arenas):
            scalar = NavigationEnv(scenario, seed=0)
            obs = scalar.reset(arena=arena)
            np.testing.assert_array_equal(observations[lane], obs)
            scalars.append({"env": scalar, "obs": obs, "done": False})

        rng = np.random.default_rng(2)
        while not env.all_done:
            actions = rng.integers(0, env.num_actions, env.num_lanes)
            step = env.step(actions)
            for lane, record in enumerate(scalars):
                if record["done"]:
                    assert not step.active[lane]
                    assert step.rewards[lane] == 0.0
                    continue
                scalar_step = record["env"].step(int(actions[lane]))
                assert step.rewards[lane] == scalar_step.reward
                assert bool(step.dones[lane]) == scalar_step.done
                assert bool(step.successes[lane]) == scalar_step.success
                assert bool(step.collisions[lane]) == scalar_step.collided
                if not scalar_step.done:
                    np.testing.assert_array_equal(
                        step.observations[lane], scalar_step.observation)
                record["done"] = scalar_step.done


class TestTrainerEquivalence:
    @pytest.mark.parametrize("scenario,seed", [(Scenario.LOW, 0),
                                               (Scenario.MEDIUM, 11),
                                               (Scenario.DENSE, 7)])
    def test_traces_and_params_bit_equal(self, scenario, seed):
        hyperparams = PolicyHyperparams(3, 32)
        kwargs = dict(population_size=8, iterations=2,
                      episodes_per_candidate=2, seed=seed)
        scalar = CemTrainer(engine="scalar", **kwargs).train(hyperparams,
                                                             scenario)
        vec = CemTrainer(engine="vec", **kwargs).train(hyperparams,
                                                       scenario)
        assert scalar.mean_return_trace == vec.mean_return_trace
        assert scalar.success_rate_trace == vec.success_rate_trace
        assert scalar.env_steps == vec.env_steps
        np.testing.assert_array_equal(scalar.best_params, vec.best_params)

    def test_deep_network_equivalence(self):
        hyperparams = PolicyHyperparams(5, 48)
        kwargs = dict(population_size=6, iterations=1,
                      episodes_per_candidate=1, seed=3)
        scalar = CemTrainer(engine="scalar", **kwargs).train(
            hyperparams, Scenario.LOW)
        vec = CemTrainer(engine="vec", **kwargs).train(
            hyperparams, Scenario.LOW)
        assert scalar.mean_return_trace == vec.mean_return_trace
        np.testing.assert_array_equal(scalar.best_params, vec.best_params)


class TestValidationEquivalence:
    def test_validate_policy_engines_agree(self):
        hyperparams = PolicyHyperparams(2, 32)
        policy = MlpPolicy(hyperparams, 16, 25)
        rng = np.random.default_rng(4)
        policy.set_params(rng.normal(size=policy.num_params))
        scalar = validate_policy(policy, Scenario.MEDIUM, episodes=8,
                                 seed=6, engine="scalar")
        vec = validate_policy(policy, Scenario.MEDIUM, episodes=8,
                              seed=6, engine="vec")
        assert scalar.successes == vec.successes
        assert scalar.collisions == vec.collisions
        assert scalar.mean_return == vec.mean_return
        assert scalar.env_steps == vec.env_steps
