"""Unit and property tests for the dataflow mapping model."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import GemmShape
from repro.scalesim.config import AcceleratorConfig, Dataflow
from repro.scalesim.dataflow import map_gemm


def make_config(rows=16, cols=16, dataflow=Dataflow.WEIGHT_STATIONARY):
    return AcceleratorConfig(pe_rows=rows, pe_cols=cols, ifmap_sram_kb=64,
                             filter_sram_kb=64, ofmap_sram_kb=64,
                             dataflow=dataflow)


class TestWeightStationary:
    def test_single_fold_cycles(self):
        # K=16 rows, N=16 cols fit in one fold: M + 2R + C - 2 cycles.
        gemm = GemmShape(m=100, k=16, n=16)
        stats = map_gemm(gemm, make_config())
        assert stats.folds == 1
        assert stats.compute_cycles == 100 + 32 + 16 - 2

    def test_fold_counts(self):
        gemm = GemmShape(m=10, k=40, n=33)
        stats = map_gemm(gemm, make_config())
        assert stats.folds == math.ceil(40 / 16) * math.ceil(33 / 16)

    def test_filter_loaded_exactly_once(self):
        gemm = GemmShape(m=10, k=40, n=33)
        stats = map_gemm(gemm, make_config())
        assert stats.filter_sram_reads == 40 * 33

    def test_ifmap_restreamed_per_column_fold(self):
        gemm = GemmShape(m=10, k=16, n=33)  # 3 column folds
        stats = map_gemm(gemm, make_config())
        assert stats.ifmap_sram_reads == 10 * 16 * 3

    def test_partial_sum_accumulation_reads(self):
        gemm = GemmShape(m=10, k=48, n=16)  # 3 K-folds
        stats = map_gemm(gemm, make_config())
        assert stats.ofmap_sram_writes == 10 * 16 * 3
        assert stats.ofmap_sram_reads == 10 * 16 * 2

    def test_no_accumulation_reads_single_k_fold(self):
        gemm = GemmShape(m=10, k=16, n=16)
        stats = map_gemm(gemm, make_config())
        assert stats.ofmap_sram_reads == 0


class TestOutputStationary:
    def test_single_fold_cycles(self):
        gemm = GemmShape(m=16, k=50, n=16)
        stats = map_gemm(gemm, make_config(dataflow=Dataflow.OUTPUT_STATIONARY))
        assert stats.folds == 1
        assert stats.compute_cycles == 2 * 16 + 16 + 50 - 2

    def test_each_output_written_once(self):
        gemm = GemmShape(m=100, k=50, n=40)
        stats = map_gemm(gemm, make_config(dataflow=Dataflow.OUTPUT_STATIONARY))
        assert stats.ofmap_sram_writes == 100 * 40
        assert stats.ofmap_sram_reads == 0

    def test_fold_counts(self):
        gemm = GemmShape(m=100, k=50, n=40)
        stats = map_gemm(gemm, make_config(dataflow=Dataflow.OUTPUT_STATIONARY))
        assert stats.folds == math.ceil(100 / 16) * math.ceil(40 / 16)


class TestInputStationary:
    def test_single_fold_cycles(self):
        gemm = GemmShape(m=16, k=16, n=70)
        stats = map_gemm(gemm, make_config(dataflow=Dataflow.INPUT_STATIONARY))
        assert stats.folds == 1
        assert stats.compute_cycles == 70 + 2 * 16 + 16 - 2

    def test_ifmap_pinned_once(self):
        gemm = GemmShape(m=40, k=40, n=10)
        stats = map_gemm(gemm, make_config(dataflow=Dataflow.INPUT_STATIONARY))
        assert stats.ifmap_sram_reads == 40 * 40


gemm_strategy = st.builds(
    GemmShape,
    m=st.integers(1, 3000),
    k=st.integers(1, 600),
    n=st.integers(1, 600),
)
dims_strategy = st.sampled_from([8, 16, 32, 64, 128])


class TestMappingInvariants:
    @settings(max_examples=60, deadline=None)
    @given(gemm=gemm_strategy, rows=dims_strategy, cols=dims_strategy,
           dataflow=st.sampled_from(list(Dataflow)))
    def test_cycles_bound_below_by_ideal(self, gemm, rows, cols, dataflow):
        stats = map_gemm(gemm, make_config(rows, cols, dataflow))
        ideal = gemm.macs / (rows * cols)
        assert stats.compute_cycles >= ideal

    @settings(max_examples=60, deadline=None)
    @given(gemm=gemm_strategy, rows=dims_strategy, cols=dims_strategy,
           dataflow=st.sampled_from(list(Dataflow)))
    def test_utilization_in_unit_interval(self, gemm, rows, cols, dataflow):
        stats = map_gemm(gemm, make_config(rows, cols, dataflow))
        assert 0.0 < stats.pe_utilization <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(gemm=gemm_strategy, rows=dims_strategy, cols=dims_strategy,
           dataflow=st.sampled_from(list(Dataflow)))
    def test_every_output_written_at_least_once(self, gemm, rows, cols,
                                                dataflow):
        stats = map_gemm(gemm, make_config(rows, cols, dataflow))
        assert stats.ofmap_sram_writes >= gemm.ofmap_elements

    @settings(max_examples=60, deadline=None)
    @given(gemm=gemm_strategy, rows=dims_strategy, cols=dims_strategy,
           dataflow=st.sampled_from(list(Dataflow)))
    def test_operands_read_at_least_once(self, gemm, rows, cols, dataflow):
        stats = map_gemm(gemm, make_config(rows, cols, dataflow))
        assert stats.ifmap_sram_reads >= gemm.m * gemm.k
        assert stats.filter_sram_reads >= gemm.filter_elements

    @settings(max_examples=40, deadline=None)
    @given(gemm=gemm_strategy, dataflow=st.sampled_from(list(Dataflow)))
    def test_bigger_array_never_more_cycles(self, gemm, dataflow):
        small = map_gemm(gemm, make_config(16, 16, dataflow))
        # Growing only the fold-reducing dimensions cannot increase the
        # number of folds; cycles per fold grow with array size though,
        # so compare at equal per-fold overhead via fold count.
        big = map_gemm(gemm, make_config(32, 32, dataflow))
        assert big.folds <= small.folds

    def test_zero_cycle_mapping_has_zero_utilization(self):
        stats = dataclasses.replace(map_gemm(GemmShape(4, 4, 4),
                                             make_config()),
                                    compute_cycles=0)
        assert stats.pe_utilization == 0.0

    def test_unknown_dataflow_rejected(self):
        config = make_config()
        object.__setattr__(config, "dataflow", "bogus")
        with pytest.raises(Exception):
            map_gemm(GemmShape(1, 1, 1), config)
