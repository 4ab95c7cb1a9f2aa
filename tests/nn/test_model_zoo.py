"""Unit tests for the reference model zoo (DroNet)."""

from repro.nn.model_zoo import DRONET_REPORTED_PARAMS, build_dronet
from repro.nn.template import PolicyHyperparams, build_policy_network


class TestDronet:
    def test_parameter_count_near_published(self):
        # DroNet is ~320k parameters; the shape-level reconstruction
        # should land within 10%.
        net = build_dronet()
        assert abs(net.total_params - DRONET_REPORTED_PARAMS) \
            < 0.10 * DRONET_REPORTED_PARAMS

    def test_has_residual_structure(self):
        net = build_dronet()
        names = [l.name for l in net.conv_layers]
        assert "res1a" in names and "res3s" in names

    def test_two_output_heads(self):
        net = build_dronet()
        assert {d.name for d in net.dense_layers} == {"fc_steer", "fc_coll"}

    def test_autopilot_models_larger_than_dronet(self):
        # Section V-A: AutoPilot E2E models are far larger than DroNet.
        dronet = build_dronet()
        autopilot = build_policy_network(PolicyHyperparams(7, 48))
        assert autopilot.total_macs > 10 * dronet.total_macs

    def test_lowerable(self):
        from repro.nn.workload import lower_network
        workload = lower_network(build_dronet())
        assert sum(l.gemm.macs for l in workload.layers) == \
            build_dronet().total_macs
