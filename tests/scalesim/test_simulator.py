"""Unit and property tests for the systolic-array simulator."""

import dataclasses

import pytest

from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import lower_network
from repro.scalesim.config import AcceleratorConfig, Dataflow
from repro.scalesim.report import RunReport
from repro.scalesim.simulator import SystolicArraySimulator, simulate


def make_config(rows=16, cols=16, sram=64, **kwargs):
    return AcceleratorConfig(pe_rows=rows, pe_cols=cols, ifmap_sram_kb=sram,
                             filter_sram_kb=sram, ofmap_sram_kb=sram,
                             **kwargs)


@pytest.fixture(scope="module")
def network():
    return build_policy_network(PolicyHyperparams(5, 32))


class TestRunReport:
    def test_layer_count(self, network):
        report = simulate(network, make_config())
        assert len(report.layers) == len(network.compute_layers())

    def test_total_macs_preserved(self, network):
        report = simulate(network, make_config())
        assert report.total_macs == network.total_macs

    def test_total_cycles_sum_of_layers(self, network):
        report = simulate(network, make_config())
        assert report.total_cycles == sum(l.total_cycles
                                          for l in report.layers)

    def test_latency_matches_cycles_and_clock(self, network):
        config = make_config()
        report = simulate(network, config)
        assert report.latency_seconds == pytest.approx(
            report.total_cycles / config.clock_hz)

    def test_fps_is_latency_inverse(self, network):
        report = simulate(network, make_config())
        assert report.frames_per_second == pytest.approx(
            1.0 / report.latency_seconds)

    def test_layer_cycles_at_least_max_of_bounds(self, network):
        report = simulate(network, make_config())
        for layer in report.layers:
            assert layer.total_cycles >= max(layer.mapping.compute_cycles,
                                             layer.traffic.dram_cycles)

    def test_utilization_in_unit_interval(self, network):
        report = simulate(network, make_config())
        assert 0.0 < report.overall_utilization <= 1.0

    def test_sram_and_dram_totals_positive(self, network):
        report = simulate(network, make_config())
        assert sum(l.mapping.ifmap_sram_reads for l in report.layers) > 0
        assert sum(l.mapping.ofmap_sram_writes for l in report.layers) > 0
        assert report.total_dram_bytes > 0


class TestScalingBehaviour:
    def test_clock_scales_latency_not_cycles(self, network):
        base = simulate(network, make_config())
        fast = simulate(network, make_config(clock_hz=400e6))
        assert fast.total_cycles == base.total_cycles
        assert fast.latency_seconds < base.latency_seconds

    def test_bigger_array_fewer_or_equal_cycles(self, network):
        small = simulate(network, make_config(rows=16, cols=16))
        big = simulate(network, make_config(rows=64, cols=64))
        assert big.total_cycles < small.total_cycles

    def test_bigger_array_lower_utilization(self, network):
        small = simulate(network, make_config(rows=16, cols=16))
        big = simulate(network, make_config(rows=256, cols=256))
        assert big.overall_utilization < small.overall_utilization

    def test_deeper_network_slower(self):
        config = make_config()
        shallow = simulate(build_policy_network(PolicyHyperparams(2, 48)),
                           config)
        deep = simulate(build_policy_network(PolicyHyperparams(10, 48)),
                        config)
        assert deep.total_cycles > shallow.total_cycles

    def test_wider_network_slower(self):
        config = make_config()
        narrow = simulate(build_policy_network(PolicyHyperparams(5, 32)),
                          config)
        wide = simulate(build_policy_network(PolicyHyperparams(5, 64)),
                        config)
        assert wide.total_cycles > narrow.total_cycles

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_all_dataflows_simulate(self, network, dataflow):
        report = simulate(network, make_config(dataflow=dataflow))
        assert report.total_cycles > 0
        assert report.total_macs == network.total_macs


class TestEveryDataflow:
    """Report invariants of each dataflow's mapping, not just WS's."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_layer_cycles_cover_compute_and_dram(self, network, dataflow):
        report = simulate(network, make_config(dataflow=dataflow))
        for layer in report.layers:
            assert layer.total_cycles >= max(layer.mapping.compute_cycles,
                                             layer.traffic.dram_cycles)
        assert report.total_cycles == sum(l.total_cycles
                                          for l in report.layers)

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_dram_traffic_splits_into_reads_and_writes(self, network,
                                                       dataflow):
        report = simulate(network, make_config(dataflow=dataflow))
        for layer in report.layers:
            traffic = layer.traffic
            assert traffic.dram_total_bytes == \
                traffic.dram_read_bytes + traffic.dram_write_bytes
            assert traffic.dram_ofmap_write_bytes > 0
        assert report.total_dram_bytes == sum(
            l.traffic.dram_total_bytes for l in report.layers)

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_utilization_in_unit_interval(self, network, dataflow):
        report = simulate(network, make_config(dataflow=dataflow))
        assert 0.0 < report.overall_utilization <= 1.0
        for layer in report.layers:
            assert 0.0 < layer.mapping.pe_utilization <= 1.0


class TestEmptyReport:
    def test_rates_of_a_report_without_layers_are_zero(self):
        report = RunReport(network_name="empty", layers=(), clock_hz=200e6)
        assert report.total_cycles == report.total_macs == 0
        assert report.frames_per_second == 0.0
        assert report.overall_utilization == 0.0
        assert report.total_dram_bytes == 0


class TestSimulatorCaching:
    def test_run_caches_nothing(self, network):
        from repro.core.evalcache import shared_report_cache

        cache = shared_report_cache()
        entries = len(cache)
        simulator = SystolicArraySimulator(make_config())
        first = simulator.run(lower_network(network))
        second = simulator.run(lower_network(network))
        assert first == second
        assert first is not second
        assert len(cache) == entries

    def test_run_network_equivalent_to_manual_lowering(self, network):
        simulator = SystolicArraySimulator(make_config())
        by_network = simulator.run_network(network)
        by_workload = SystolicArraySimulator(make_config()).run(
            lower_network(network))
        assert by_network.total_cycles == by_workload.total_cycles


class TestCacheSoundness:
    """Regression tests for the old ``(name, id(workload))`` cache key.

    That key could alias two *different* workloads when CPython recycled
    an ``id`` for an object sharing the template network name.  The
    simulator now keeps no cache, and a report must always reflect its
    own workload's content.
    """

    def test_same_name_different_content_never_aliases(self, network):
        # Two workloads that share a name but differ in content must
        # produce reports reflecting their own content.
        simulator = SystolicArraySimulator(make_config())
        small = lower_network(build_policy_network(PolicyHyperparams(2, 32)))
        big = lower_network(build_policy_network(PolicyHyperparams(10, 64)))
        small = dataclasses.replace(small, name="shared-name")
        big = dataclasses.replace(big, name="shared-name")
        assert simulator.run(small).total_macs != simulator.run(big).total_macs
