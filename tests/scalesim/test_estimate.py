"""Tier-0 estimator soundness: certified lower bounds + rank quality.

The multi-fidelity pruning rail (DESIGN.md section 12) is sound only if
every tier-0 column truly bounds the exact simulator from below.
These tests check that invariant over random accelerator configs x the
model zoo (hypothesis-driven), and pin the screening *signal*: the
tier-0 total-cycle estimate must rank a random DSE pool close to the
exact simulator (Kendall tau floor).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.nn.workload import NetworkWorkload
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)
from repro.scalesim.estimate import (
    estimate_batch,
    lower_workload_aggregates,
)
from repro.scalesim.simulator import SystolicArraySimulator
from tests.scalesim.zoo import ZOO, random_configs, workload_for

#: Floor on the tier-0 vs tier-1 rank correlation over a random pool.
#: Measured ~0.8; 0.5 leaves headroom while still catching a broken
#: estimator (a random ranking sits near 0).
MIN_KENDALL_TAU = 0.5


def kendall_tau(a, b) -> float:
    """Kendall tau-b, hand-rolled (scipy is not a dependency)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    pairs = n * (n - 1) / 2
    denom = np.sqrt((pairs - ties_a) * (pairs - ties_b))
    if denom == 0:
        return 0.0
    return (concordant - discordant) / denom


def exact_reports(workload, configs):
    """The exact simulator's report per config."""
    return [SystolicArraySimulator(config).run(workload)
            for config in configs]


def layer_sum(report, value):
    return sum(value(layer) for layer in report.layers)


def assert_bounds_hold(workload, configs):
    """Every tier-0 column must bound the exact simulator from below."""
    estimate = estimate_batch(workload, configs)
    for i, report in enumerate(exact_reports(workload, configs)):
        assert estimate.compute_cycles[i] <= layer_sum(
            report, lambda l: l.mapping.compute_cycles)
        assert estimate.total_cycles[i] <= report.total_cycles
        assert estimate.dram_bytes[i] <= layer_sum(
            report, lambda l: (l.traffic.dram_ifmap_read_bytes
                               + l.traffic.dram_filter_read_bytes
                               + l.traffic.dram_ofmap_write_bytes))
        assert estimate.ifmap_sram_reads[i] <= layer_sum(
            report, lambda l: l.mapping.ifmap_sram_reads)
        assert estimate.filter_sram_reads[i] <= layer_sum(
            report, lambda l: l.mapping.filter_sram_reads)
        assert estimate.ofmap_sram_writes[i] <= layer_sum(
            report, lambda l: l.mapping.ofmap_sram_writes)


class TestLowerBounds:
    @settings(max_examples=30, deadline=None)
    @given(pe_rows=st.sampled_from(sorted(PE_DIM_CHOICES)),
           pe_cols=st.sampled_from(sorted(PE_DIM_CHOICES)),
           ifmap_kb=st.sampled_from(sorted(SRAM_KB_CHOICES)),
           filter_kb=st.sampled_from(sorted(SRAM_KB_CHOICES)),
           ofmap_kb=st.sampled_from(sorted(SRAM_KB_CHOICES)),
           dataflow=st.sampled_from(list(Dataflow)),
           policy_index=st.integers(0, len(ZOO) - 1))
    def test_bounds_hold_per_config(self, pe_rows, pe_cols, ifmap_kb,
                                    filter_kb, ofmap_kb, dataflow,
                                    policy_index):
        config = AcceleratorConfig(
            pe_rows=pe_rows, pe_cols=pe_cols, ifmap_sram_kb=ifmap_kb,
            filter_sram_kb=filter_kb, ofmap_sram_kb=ofmap_kb,
            dataflow=dataflow)
        assert_bounds_hold(workload_for(ZOO[policy_index]), [config])

    def test_bounds_hold_over_random_pool(self):
        rng = np.random.default_rng(17)
        for policy in ZOO:
            assert_bounds_hold(workload_for(policy),
                               random_configs(rng, 64))

    def test_degenerate_1x1_array(self):
        config = AcceleratorConfig(pe_rows=1, pe_cols=1, ifmap_sram_kb=1,
                                   filter_sram_kb=1, ofmap_sram_kb=1)
        assert_bounds_hold(workload_for(ZOO[0]), [config])


class TestAggregates:
    def test_aggregates_match_per_layer_sums(self):
        workload = workload_for(ZOO[1])
        agg = lower_workload_aggregates(workload)
        assert agg.num_layers == len(workload.layers)
        assert agg.macs == sum(l.gemm.macs for l in workload.layers)
        assert agg.sum_kn == sum(l.gemm.k * l.gemm.n
                                 for l in workload.layers)
        assert agg.sum_mn == sum(l.gemm.m * l.gemm.n
                                 for l in workload.layers)
        assert agg.sum_mk == sum(l.gemm.m * l.gemm.k
                                 for l in workload.layers)
        assert agg.ifmap_bytes == sum(l.ifmap_bytes
                                      for l in workload.layers)
        assert agg.filter_bytes == sum(l.filter_bytes
                                       for l in workload.layers)
        assert agg.ofmap_bytes == sum(l.ofmap_bytes
                                      for l in workload.layers)

    def test_estimate_accepts_precomputed_aggregates(self):
        workload = workload_for(ZOO[0])
        configs = random_configs(np.random.default_rng(3), 8)
        agg = lower_workload_aggregates(workload)
        direct = estimate_batch(workload, configs)
        via_agg = estimate_batch(agg, configs)
        assert np.array_equal(direct.total_cycles, via_agg.total_cycles)
        assert np.array_equal(direct.dram_bytes, via_agg.dram_bytes)

    def test_workload_without_layers_rejected(self):
        with pytest.raises(SimulationError, match="no layers"):
            lower_workload_aggregates(NetworkWorkload("empty", ()))

    def test_empty_config_batch_rejected(self):
        with pytest.raises(SimulationError, match="must not be empty"):
            estimate_batch(workload_for(ZOO[0]), [])

    def test_mixed_dataflow_batch_preserves_order(self):
        workload = workload_for(ZOO[0])
        configs = random_configs(np.random.default_rng(5), 24)
        batch = estimate_batch(workload, configs)
        for i, config in enumerate(configs):
            single = estimate_batch(workload, [config])
            assert batch.total_cycles[i] == single.total_cycles[0]
            assert batch.compute_cycles[i] == single.compute_cycles[0]


class TestScreeningSignal:
    def test_kendall_tau_clears_floor_on_random_pools(self):
        rng = np.random.default_rng(23)
        for policy in ZOO:
            workload = workload_for(policy)
            configs = random_configs(rng, 60)
            estimate = estimate_batch(workload, configs)
            exact = [report.total_cycles
                     for report in exact_reports(workload, configs)]
            tau = kendall_tau(estimate.total_cycles, exact)
            assert tau >= MIN_KENDALL_TAU, (
                f"{policy.identifier}: tier-0/tier-1 Kendall tau "
                f"{tau:.3f} < {MIN_KENDALL_TAU}")
