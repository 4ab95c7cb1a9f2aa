"""Unit tests for policy validation."""

import numpy as np
import pytest

from repro.airlearning.env import NavigationEnv
from repro.airlearning.evaluate import validate_policy
from repro.airlearning.policy import MlpPolicy
from repro.airlearning.scenarios import Scenario
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams


def make_policy(seed=0):
    env = NavigationEnv(Scenario.LOW, seed=0)
    policy = MlpPolicy(PolicyHyperparams(2, 32), env.observation_dim,
                       env.num_actions)
    policy.set_params(np.random.default_rng(seed).normal(
        size=policy.num_params))
    return policy


class TestValidatePolicy:
    def test_episode_accounting(self):
        result = validate_policy(make_policy(), Scenario.LOW, episodes=8,
                                 seed=1)
        assert result.episodes == 8
        assert 0 <= result.successes <= 8
        assert 0 <= result.collisions <= 8
        assert result.successes + result.collisions <= 8

    def test_success_rate_definition(self):
        result = validate_policy(make_policy(), Scenario.LOW, episodes=8,
                                 seed=1)
        assert result.success_rate == result.successes / 8

    def test_deterministic_under_seed(self):
        a = validate_policy(make_policy(3), Scenario.LOW, episodes=5, seed=2)
        b = validate_policy(make_policy(3), Scenario.LOW, episodes=5, seed=2)
        assert a.successes == b.successes
        assert a.mean_return == pytest.approx(b.mean_return)

    def test_rejects_zero_episodes(self):
        with pytest.raises(ConfigError):
            validate_policy(make_policy(), Scenario.LOW, episodes=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError, match="engine must be one of"):
            validate_policy(make_policy(), Scenario.LOW, episodes=1,
                            engine="gpu")

    def test_validation_arenas_differ_from_training(self):
        # The validation seed offset must change the generated arenas.
        train_env = NavigationEnv(Scenario.LOW, seed=4)
        train_env.reset()
        from repro.airlearning.evaluate import VALIDATION_SEED_OFFSET
        val_env = NavigationEnv(Scenario.LOW,
                                seed=4 + VALIDATION_SEED_OFFSET)
        val_env.reset()
        assert train_env.arena.goal != val_env.arena.goal
