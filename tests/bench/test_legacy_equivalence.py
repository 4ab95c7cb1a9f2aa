"""Legacy bit-equality: the registry must not move a single bit.

The digests below were captured at the commit *before* the scenario
registry existed, over the paper's three scenarios.  Any refactor of
the scenario/arena/env stack that perturbs an arena RNG stream, a
rollout float, or a CEM snapshot identity fails against this frozen
table -- the
registry is only allowed to *add* scenarios, never to change the three
the rest of the repository's frozen references were built on.

Also covered: the scalar environment stays the bit-exact oracle of the
vectorised engine when the new wind/sensor-noise channels are enabled.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.airlearning.arena import ArenaGenerator
from repro.airlearning.env import NavigationEnv
from repro.airlearning.scenarios import Scenario, scenario_spec
from repro.airlearning.surrogate import SuccessRateSurrogate
from repro.airlearning.trainer import CemTrainer
from repro.airlearning.vecenv import VecNavigationEnv
from repro.core.checkpoint import RunCheckpoint
from repro.nn.template import PolicyHyperparams

# Captured at the pre-registry HEAD (see module docstring).
FROZEN_DIGESTS = {
    ("low", 0): (
        "f450899622e3a7e902a50ce010e7857293ba13f7f66bf15edfa53922289459b3",
        "a33be946e5c46300376a41f4af57cccf1aab68d5484deadb568c979cfbf87593"),
    ("low", 7): (
        "1800444639ef73a2429a6621a02a39bba3945f8a269b2f95a6b26362fe14bf45",
        "56619245a8d9b4091e10839966d06859fcb56c77ec829b269d081ed76bd1f22e"),
    ("medium", 0): (
        "26047576860b2ab9150dbb449f4c98572fd0b4a13de51a13a4d5b2d499a55ff7",
        "79c95a720d47b12c3a04a296206378f51d7d0fb90906c7c8933ee68be85a8ac6"),
    ("medium", 7): (
        "e9249be5aaf5f9c1cf1a89f6d2d81be8140dbb49ac955e5c80034292da0224ff",
        "1d4a6c9a62f89a92b8574030e83614b5daa439e3189e1c8cc128385522346383"),
    ("dense", 0): (
        "b3046479de436e7b7439d9ff002d3c405a4871403a2f5b9171dd107772c2c51e",
        "b4b3053f991f4ba1418a2d2015742dc889be55c0ec7658a5cee25bd19bf79654"),
    ("dense", 7): (
        "cb89c6bd21b7b964a25133ec319b160ed2e825a43bdfc3c8d0b6d02986f16598",
        "bead88bf5a37ad002b9b8a286b64f22a488afa0a0a34bcda46c29b9f74786052"),
}

# The CEM snapshot identity of one CemTrainer/PolicyHyperparams
# configuration: the file a run checkpoint keeps the snapshot in, and
# the fingerprint a snapshot must carry to be resumed.  A scenario
# handle that named either differently would not resume the snapshot
# the enum member wrote, and a changed fingerprint would refuse every
# snapshot already on disk.
FROZEN_SNAPSHOT_IDENTITIES = {
    scenario_id: (f"cem-L3-F32-{scenario_id}.pkl",
                  (("cem", 6, 2, 1, 2, 0.5, 3, "vec"), (3, 32), scenario_id))
    for scenario_id in ("low", "medium", "dense")
}


def _arena_digest(scenario, seed, arenas=5):
    generator = ArenaGenerator(scenario, seed=seed)
    digest = hashlib.sha256()
    for _ in range(arenas):
        arena = generator.generate()
        digest.update(repr((
            arena.size_m, arena.start, arena.goal,
            [(o.x, o.y, o.radius) for o in arena.obstacles])).encode())
    return digest.hexdigest()


def _rollout_digest(scenario, seed, episodes=2):
    env = NavigationEnv(scenario, seed=seed)
    rng = np.random.default_rng(1234)
    digest = hashlib.sha256()
    for _ in range(episodes):
        obs = env.reset()
        digest.update(obs.tobytes())
        done = False
        while not done:
            step = env.step(int(rng.integers(0, env.num_actions)))
            digest.update(step.observation.tobytes())
            digest.update(np.float64(step.reward).tobytes())
            done = step.done
    return digest.hexdigest()


@pytest.mark.parametrize("scenario_id,seed", sorted(FROZEN_DIGESTS))
def test_legacy_arena_streams_bit_identical(scenario_id, seed):
    frozen_arena, _ = FROZEN_DIGESTS[(scenario_id, seed)]
    assert _arena_digest(Scenario(scenario_id), seed) == frozen_arena
    # The registry id-string handle must drive the identical stream.
    assert _arena_digest(scenario_id, seed) == frozen_arena


@pytest.mark.parametrize("scenario_id,seed", sorted(FROZEN_DIGESTS))
def test_legacy_rollouts_bit_identical(scenario_id, seed):
    _, frozen_rollout = FROZEN_DIGESTS[(scenario_id, seed)]
    assert _rollout_digest(Scenario(scenario_id), seed) == frozen_rollout
    assert _rollout_digest(scenario_id, seed) == frozen_rollout


def test_legacy_cem_snapshot_identities_unchanged(tmp_path):
    trainer = CemTrainer(population_size=6, iterations=2,
                         episodes_per_candidate=1, seed=3)
    hyperparams = PolicyHyperparams(num_layers=3, num_filters=32)
    checkpoint = RunCheckpoint(tmp_path)
    for member in Scenario:
        name, fingerprint = FROZEN_SNAPSHOT_IDENTITIES[member.value]
        # Registry spec handles duck-type .value, so they name and
        # fingerprint the snapshot exactly like the enum member.
        for handle in (member, scenario_spec(member)):
            assert (checkpoint.cem_checkpoint_path(hyperparams, handle)
                    == tmp_path / "phase1" / name)
            assert (trainer._snapshot_fingerprint(hyperparams, handle)
                    == fingerprint)


def test_surrogate_identical_across_handle_shapes():
    surrogate = SuccessRateSurrogate(seed=7)
    hyperparams = PolicyHyperparams(num_layers=5, num_filters=48)
    for member in Scenario:
        via_enum = surrogate.success_rate(hyperparams, member)
        via_id = surrogate.success_rate(hyperparams, member.value)
        via_spec = surrogate.success_rate(hyperparams, scenario_spec(member))
        assert via_enum == via_id == via_spec


@pytest.mark.parametrize("scenario_id", [
    "dense",          # legacy: wind and noise both disabled
    "corridor-windy",  # wind only
    "forest-foggy",    # noise only
    "urban-night",     # wind and noise together
    "open-windy",      # wind at the guardrail limit
])
def test_scalar_env_is_bitwise_oracle_of_vec_env(scenario_id):
    """Each lane of the vec engine replays one scalar episode bit-for-bit.

    The scalar env runs the episodes back to back from one arena stream;
    the vec engine runs one lane per episode, in the same arenas, and
    each lane replays its episode's actions.  The episodes end at
    different steps, so finished lanes must drop out of the lockstep.
    """
    spec = scenario_spec(scenario_id)
    seed, episodes = 11, 3

    env = NavigationEnv(spec, seed=seed)
    rng = np.random.default_rng(99)
    resets, transitions = [], []
    for _ in range(episodes):
        resets.append(env.reset().copy())
        episode = []
        done = False
        while not done:
            action = int(rng.integers(0, env.num_actions))
            step = env.step(action)
            episode.append((action, step.observation.copy(), step.reward,
                            step.done))
            done = step.done
        transitions.append(episode)

    generator = ArenaGenerator(spec, seed=seed)
    venv = VecNavigationEnv([generator.generate() for _ in range(episodes)],
                            wind=spec.wind_vector,
                            sensor_noise=spec.sensor_noise)
    np.testing.assert_array_equal(venv.reset(), np.asarray(resets))

    for t in range(max(len(episode) for episode in transitions)):
        live = [t < len(episode) for episode in transitions]
        actions = [episode[t][0] if t < len(episode) else 0
                   for episode in transitions]
        result = venv.step(np.asarray(actions))
        assert result.active.tolist() == live
        for lane, episode in enumerate(transitions):
            if not live[lane]:
                continue
            _, scalar_obs, scalar_reward, scalar_done = episode[t]
            assert result.rewards[lane] == scalar_reward
            assert bool(result.dones[lane]) == scalar_done
            if not scalar_done:
                np.testing.assert_array_equal(result.observations[lane],
                                              scalar_obs)
    assert venv.all_done
    assert len({len(episode) for episode in transitions}) > 1


def test_wind_actually_displaces_the_uav():
    """The gated wind drift is real, not a no-op, when enabled."""
    calm = scenario_spec("urban-canyon")
    windy = scenario_spec("urban-windy")
    assert windy.wind_vector != (0.0, 0.0)
    env_calm = NavigationEnv(calm, seed=5)
    env_windy = NavigationEnv(windy, seed=5)
    env_calm.reset()
    env_windy.reset()
    # Same arena stream (same kind/size/seed), same action: positions
    # must differ by exactly the wind drift after one step.
    env_calm.step(0)
    env_windy.step(0)
    dt = env_calm.dynamics.dt
    wind_x, wind_y = windy.wind_vector
    assert env_windy.state.x == pytest.approx(env_calm.state.x
                                              + wind_x * dt)
    assert env_windy.state.y == pytest.approx(env_calm.state.y
                                              + wind_y * dt)


def test_sensor_noise_perturbs_rays_within_range():
    from repro.airlearning.sensors import apply_sensor_noise

    spec = scenario_spec("forest-foggy")
    env = NavigationEnv(spec, seed=2)
    obs = env.reset()
    rays = obs[:-4]
    assert np.all(rays >= 0.0) and np.all(rays <= 1.0)

    clean = np.linspace(0.2, 0.8, 12)
    noisy = apply_sensor_noise(clean, spec.sensor_noise, x=3.0, y=4.0)
    assert noisy.shape == clean.shape
    assert np.any(noisy != clean)
    assert np.all(np.abs(noisy - clean) <= spec.sensor_noise + 1e-12)
    # Amplitude zero is the exact identity (the legacy gate).
    np.testing.assert_array_equal(
        apply_sensor_noise(clean, 0.0, x=3.0, y=4.0), clean)
