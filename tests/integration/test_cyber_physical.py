"""Cross-stack integration checks of the cyber-physical couplings."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.uav.mission import evaluate_mission
from repro.uav.platforms import ALL_PLATFORMS, NANO_ZHANG


class TestEnergyBudget:
    @pytest.mark.parametrize("platform", ALL_PLATFORMS,
                             ids=lambda p: p.uav_class.value)
    def test_rotors_dominate_uav_power(self, shared_context, platform):
        # MAVBench's observation, which the paper leans on: ~95% of UAV
        # power goes to the rotors, so compute optimisation pays via
        # velocity, not via its own watts.
        result = shared_context.run(platform, Scenario.MEDIUM)
        mission = result.selected.mission
        rotor_share = mission.rotor_power_w / mission.total_power_w
        assert rotor_share > 0.85

    def test_compute_share_small_but_nonzero(self, shared_context):
        result = shared_context.run(NANO_ZHANG, Scenario.MEDIUM)
        mission = result.selected.mission
        share = mission.compute_power_w / mission.total_power_w
        assert 0.0 < share < 0.15


class TestWeightPowerVelocityChain:
    def test_full_chain_directionality(self):
        # More compute power => heavier heatsink => lower ceiling =>
        # lower velocity => fewer missions, holding throughput fixed.
        from repro.soc.weight import compute_weight
        light = evaluate_mission(NANO_ZHANG,
                                 compute_weight(0.5).total_g, 0.5, 60.0)
        heavy = evaluate_mission(NANO_ZHANG,
                                 compute_weight(8.0).total_g, 8.0, 60.0)
        assert heavy.velocity_ceiling_m_s < light.velocity_ceiling_m_s
        assert heavy.safe_velocity_m_s < light.safe_velocity_m_s
        assert heavy.num_missions < light.num_missions
