"""Unit tests for workload lowering."""

from repro.nn.layers import ConvLayer, DenseLayer
from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import LayerWorkload, lower_network


class TestLayerWorkload:
    def test_byte_sizes_at_int8(self):
        conv = ConvLayer("c", 16, 16, 3, 8, 3, 1)
        workload = LayerWorkload(name="c", gemm=conv.as_gemm(),
                                 stored_ifmap_elements=conv.ifmap_elements)
        assert workload.ifmap_bytes == 16 * 16 * 3
        assert workload.filter_bytes == 9 * 3 * 8
        assert workload.ofmap_bytes == 16 * 16 * 8

    def test_byte_sizes_scale_with_element_width(self):
        conv = ConvLayer("c", 16, 16, 3, 8, 3, 1)
        w1 = LayerWorkload("c", conv.as_gemm(), conv.ifmap_elements,
                           bytes_per_element=1)
        w2 = LayerWorkload("c", conv.as_gemm(), conv.ifmap_elements,
                           bytes_per_element=2)
        assert w2.ifmap_bytes == 2 * w1.ifmap_bytes
        assert w2.filter_bytes == 2 * w1.filter_bytes


class TestLowerNetwork:
    def test_layer_count_matches_compute_layers(self, medium_policy):
        network = build_policy_network(medium_policy)
        workload = lower_network(network)
        assert len(workload.layers) == len(network.compute_layers())

    def test_total_macs_preserved(self, medium_policy):
        network = build_policy_network(medium_policy)
        workload = lower_network(network)
        assert sum(l.gemm.macs for l in workload.layers) == \
            network.total_macs

    def test_dense_stored_ifmap_is_in_features(self):
        network = build_policy_network(PolicyHyperparams(2, 32))
        workload = lower_network(network)
        dense = [l for l in workload.layers if l.name == "fc1"][0]
        fc1 = [l for l in network.dense_layers if l.name == "fc1"][0]
        assert dense.stored_ifmap_elements == fc1.in_features

    def test_conv_stored_ifmap_is_feature_map(self):
        network = build_policy_network(PolicyHyperparams(2, 32))
        workload = lower_network(network)
        conv1 = workload.layers[0]
        assert conv1.stored_ifmap_elements == 320 * 180 * 3

    def test_total_filter_bytes_close_to_params(self, medium_policy):
        # Weights-at-int8 footprint tracks parameter count (biases are
        # counted in params but not lowered as GEMM operands).
        network = build_policy_network(medium_policy)
        workload = lower_network(network)
        filter_bytes = sum(l.filter_bytes for l in workload.layers)
        assert 0.95 < filter_bytes / network.total_params <= 1.0

    def test_names_preserved(self, small_policy):
        network = build_policy_network(small_policy)
        workload = lower_network(network)
        assert [l.name for l in workload.layers] == [
            l.name for l in network.compute_layers()]
