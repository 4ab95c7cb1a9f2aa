"""Unit tests for baseline onboard computers."""

import pytest

from repro.baselines.computers import (
    ALL_BASELINES,
    BaselineComputer,
    FIG5_BASELINES,
    INTEL_NCS,
    JETSON_TX2,
    PULP_DRONET,
    TABLE5_BASELINES,
    XAVIER_NX,
)
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.soc.weight import MOTHERBOARD_WEIGHT_G, compute_weight


@pytest.fixture(scope="module")
def network():
    return build_policy_network(PolicyHyperparams(7, 48))


class TestThroughput:
    def test_fps_inverse_in_network_size(self):
        small = build_policy_network(PolicyHyperparams(2, 32))
        big = build_policy_network(PolicyHyperparams(10, 64))
        assert JETSON_TX2.throughput_fps(small) > \
            JETSON_TX2.throughput_fps(big)

    def test_fps_formula(self, network):
        fps = JETSON_TX2.throughput_fps(network)
        assert fps == pytest.approx(
            JETSON_TX2.effective_macs_per_second / network.total_macs)

    def test_pulp_fixed_rate_regardless_of_network(self, network):
        small = build_policy_network(PolicyHyperparams(2, 32))
        assert PULP_DRONET.throughput_fps(network) == 6.0
        assert PULP_DRONET.throughput_fps(small) == 6.0

    def test_nx_faster_than_tx2(self, network):
        assert XAVIER_NX.throughput_fps(network) > \
            JETSON_TX2.throughput_fps(network)

    def test_ncs_is_slow(self, network):
        # The NCS must be compute-bound on GMAC-scale policies
        # (Table V: 67% degradation from a lowered Vsafe).
        assert INTEL_NCS.throughput_fps(network) < 10.0


class TestWeightConvention:
    def test_weights_derived_from_power(self):
        for baseline in ALL_BASELINES:
            assert baseline.weight_g == pytest.approx(
                compute_weight(baseline.power_w).total_g)

    def test_pulp_weight_near_motherboard_floor(self):
        assert PULP_DRONET.weight_g == pytest.approx(MOTHERBOARD_WEIGHT_G,
                                                     abs=1.0)

    def test_gpu_modules_much_heavier_than_pulp(self):
        assert JETSON_TX2.weight_g > 3 * PULP_DRONET.weight_g

    def test_explicit_weight_override_respected(self):
        from repro.baselines.computers import BaselineComputer
        custom = BaselineComputer(name="custom", power_w=5.0,
                                  effective_macs_per_second=1e9,
                                  weight_g=42.0)
        assert custom.weight_g == 42.0


class TestRegistry:
    def test_fig5_set(self):
        assert [b.name for b in FIG5_BASELINES] == \
            ["Jetson TX2", "Xavier NX", "PULP-DroNet"]

    def test_table5_set(self):
        assert [b.name for b in TABLE5_BASELINES] == \
            ["Jetson TX2", "Intel NCS"]

    def test_names_are_unique(self):
        names = [b.name for b in ALL_BASELINES]
        assert len(set(names)) == len(names)

    def test_power_magnitudes(self):
        assert PULP_DRONET.power_w == pytest.approx(0.064)
        assert JETSON_TX2.power_w > XAVIER_NX.power_w > INTEL_NCS.power_w \
            > PULP_DRONET.power_w


class TestValidation:
    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigError, match="power"):
            BaselineComputer(name="dead", power_w=0.0,
                             effective_macs_per_second=1e9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="weight"):
            BaselineComputer(name="floating", power_w=1.0,
                             effective_macs_per_second=1e9, weight_g=-1.0)

    def test_needs_a_mac_rate_or_a_fixed_frame_rate(self):
        with pytest.raises(ConfigError, match="MAC rate"):
            BaselineComputer(name="idle", power_w=1.0,
                             effective_macs_per_second=0.0)

    def test_fixed_frame_rate_needs_no_mac_rate(self, network):
        fixed = BaselineComputer(name="fixed", power_w=1.0,
                                 effective_macs_per_second=0.0,
                                 fixed_fps=12.5)
        assert fixed.throughput_fps(network) == 12.5
