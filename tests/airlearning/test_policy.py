"""Unit tests for the NumPy MLP policy."""

import numpy as np
import pytest

from repro.airlearning.policy import BatchedMlpPolicy, MlpPolicy
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams


def make_policy(layers=3, filters=32, obs_dim=16, actions=25):
    return MlpPolicy(PolicyHyperparams(layers, filters), obs_dim, actions)


class TestConstruction:
    def test_depth_tracks_hyperparams_up_to_cap(self):
        shallow = make_policy(layers=2)
        deep = make_policy(layers=10)
        assert len(shallow.layer_sizes) == 3  # 2 hidden + output
        assert len(deep.layer_sizes) == MlpPolicy.MAX_HIDDEN_LAYERS + 1

    def test_width_tracks_filters(self):
        policy = make_policy(filters=48)
        assert policy.layer_sizes[0][1] == 48

    def test_num_params_formula(self):
        policy = make_policy(layers=2, filters=32, obs_dim=16, actions=25)
        expected = (16 * 32 + 32) + (32 * 32 + 32) + (32 * 25 + 25)
        assert policy.num_params == expected

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            MlpPolicy(PolicyHyperparams(3, 32), 0, 25)
        with pytest.raises(ConfigError):
            MlpPolicy(PolicyHyperparams(3, 32), 16, 0)


class TestParameters:
    def test_roundtrip(self, rng):
        policy = make_policy()
        params = rng.normal(size=policy.num_params)
        policy.set_params(params)
        assert np.allclose(policy.get_params(), params)

    def test_get_params_returns_copy(self):
        policy = make_policy()
        params = policy.get_params()
        params[0] = 123.0
        assert policy.get_params()[0] != 123.0

    def test_wrong_size_rejected(self):
        policy = make_policy()
        with pytest.raises(ConfigError):
            policy.set_params(np.zeros(policy.num_params + 1))


class TestForward:
    def test_logits_shape(self, rng):
        policy = make_policy()
        policy.set_params(rng.normal(size=policy.num_params))
        logits = policy.action_logits(rng.normal(size=16))
        assert logits.shape == (25,)

    def test_act_is_argmax(self, rng):
        policy = make_policy()
        policy.set_params(rng.normal(size=policy.num_params))
        obs = rng.normal(size=16)
        assert policy.act(obs) == int(np.argmax(policy.action_logits(obs)))

    def test_deterministic(self, rng):
        policy = make_policy()
        policy.set_params(rng.normal(size=policy.num_params))
        obs = rng.normal(size=16)
        assert policy.act(obs) == policy.act(obs)

    def test_zero_params_zero_logits(self):
        policy = make_policy()
        logits = policy.action_logits(np.ones(16))
        assert np.allclose(logits, 0.0)

    def test_wrong_obs_dim_rejected(self, rng):
        policy = make_policy()
        with pytest.raises(ConfigError):
            policy.act(rng.normal(size=17))

    def test_parameters_change_behavior(self, rng):
        policy = make_policy()
        obs = rng.normal(size=16)
        policy.set_params(rng.normal(size=policy.num_params))
        first = policy.action_logits(obs)
        policy.set_params(rng.normal(size=policy.num_params))
        second = policy.action_logits(obs)
        assert not np.allclose(first, second)


class TestBatchedPolicy:
    def test_params_matrix_must_match_the_template(self):
        with pytest.raises(ConfigError, match="expected params"):
            BatchedMlpPolicy(PolicyHyperparams(3, 32), 16, 25,
                             np.zeros((4, make_policy().num_params + 1)))

    def test_observations_must_hold_one_row_per_lane(self):
        policy = make_policy()
        batched = BatchedMlpPolicy(PolicyHyperparams(3, 32), 16, 25,
                                   np.zeros((4, policy.num_params)))
        with pytest.raises(ConfigError, match="expected observations"):
            batched.action_logits(np.zeros((3, 16)))
