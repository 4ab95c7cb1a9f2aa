"""Unit tests for the Fig. 2a policy template."""

import pytest

from repro.errors import ConfigError
from repro.nn.layers import ConvLayer, DenseLayer
from repro.nn.template import (
    FC1_WIDTH,
    FC2_WIDTH,
    FILTER_CHOICES,
    INPUT_CHANNELS,
    INPUT_HEIGHT,
    INPUT_WIDTH,
    LAYER_CHOICES,
    NUM_ACTIONS,
    POOLED_SIZE,
    STATE_DIM,
    PolicyHyperparams,
    build_policy_network,
    enumerate_template_space,
)


class TestPolicyHyperparams:
    def test_valid_point(self):
        hp = PolicyHyperparams(num_layers=5, num_filters=32)
        assert hp.identifier == "e2e-L5-F32"

    @pytest.mark.parametrize("layers", [0, 1, 11, -3])
    def test_rejects_bad_layers(self, layers):
        with pytest.raises(ConfigError):
            PolicyHyperparams(num_layers=layers, num_filters=32)

    @pytest.mark.parametrize("filters", [0, 16, 33, 128])
    def test_rejects_bad_filters(self, filters):
        with pytest.raises(ConfigError):
            PolicyHyperparams(num_layers=5, num_filters=filters)

    def test_identifiers_unique_across_space(self):
        ids = {p.identifier for p in enumerate_template_space()}
        assert len(ids) == 27


class TestBuildPolicyNetwork:
    def test_conv_count_matches_num_layers(self):
        for layers in LAYER_CHOICES:
            net = build_policy_network(PolicyHyperparams(layers, 48))
            assert len(net.conv_layers) == layers

    def test_three_dense_layers(self):
        net = build_policy_network(PolicyHyperparams(4, 32))
        assert len(net.dense_layers) == 3

    def test_first_conv_consumes_input_geometry(self):
        net = build_policy_network(PolicyHyperparams(3, 32))
        first = net.conv_layers[0]
        assert (first.in_height, first.in_width, first.in_channels) == (
            INPUT_HEIGHT, INPUT_WIDTH, INPUT_CHANNELS)

    def test_only_first_conv_strided(self):
        net = build_policy_network(PolicyHyperparams(6, 32))
        strides = [c.stride for c in net.conv_layers]
        assert strides[0] == 2
        assert all(s == 1 for s in strides[1:])

    def test_fc_head_geometry(self):
        net = build_policy_network(PolicyHyperparams(5, 48))
        fc1, fc2, out = net.dense_layers
        assert fc1.in_features == POOLED_SIZE * POOLED_SIZE * 48
        assert fc1.out_features == FC1_WIDTH
        assert fc2.in_features == FC1_WIDTH + STATE_DIM
        assert fc2.out_features == FC2_WIDTH
        assert out.out_features == NUM_ACTIONS

    def test_macs_increase_with_depth(self):
        macs = [build_policy_network(PolicyHyperparams(l, 48)).total_macs
                for l in LAYER_CHOICES]
        assert macs == sorted(macs)
        assert macs[0] < macs[-1]

    def test_macs_increase_with_width(self):
        macs = [build_policy_network(PolicyHyperparams(5, f)).total_macs
                for f in FILTER_CHOICES]
        assert macs == sorted(macs)

    def test_params_positive_and_increasing_with_width(self):
        params = [build_policy_network(PolicyHyperparams(5, f)).total_params
                  for f in FILTER_CHOICES]
        assert all(p > 0 for p in params)
        assert params == sorted(params)

    def test_total_macs_is_gmac_scale(self):
        # The paper's E2E models run at 22-200 FPS on 0.7-8.24 W arrays
        # (Table III), which implies GMAC-scale inference.
        net = build_policy_network(PolicyHyperparams(7, 48))
        assert 0.5e9 < net.total_macs < 10e9

    def test_compute_layers_excludes_pool(self):
        net = build_policy_network(PolicyHyperparams(3, 32))
        for layer in net.compute_layers():
            assert isinstance(layer, (ConvLayer, DenseLayer))

    def test_as_gemms_matches_compute_layers(self):
        net = build_policy_network(PolicyHyperparams(3, 32))
        gemms = net.as_gemms()
        assert len(gemms) == len(net.compute_layers())
        assert sum(g.macs for g in gemms) == net.total_macs

    def test_network_name_matches_identifier(self):
        hp = PolicyHyperparams(4, 64)
        assert build_policy_network(hp).name == hp.identifier


class TestTemplateSpace:
    def test_enumeration_matches_size(self):
        assert len(enumerate_template_space()) == 27

    def test_enumeration_covers_all_choices(self):
        points = enumerate_template_space()
        assert {p.num_layers for p in points} == set(LAYER_CHOICES)
        assert {p.num_filters for p in points} == set(FILTER_CHOICES)
