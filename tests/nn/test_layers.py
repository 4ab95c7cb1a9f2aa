"""Unit tests for layer descriptors."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.nn.layers import ConvLayer, DenseLayer, GemmShape, PoolLayer


class TestConvLayer:
    def make(self, **overrides):
        params = dict(name="c", in_height=32, in_width=32, in_channels=3,
                      num_filters=16, kernel_size=3, stride=1)
        params.update(overrides)
        return ConvLayer(**params)

    def test_same_padding_stride1_preserves_shape(self):
        conv = self.make()
        assert conv.out_height == 32
        assert conv.out_width == 32

    def test_stride2_halves_shape_rounding_up(self):
        conv = self.make(in_height=33, in_width=32, stride=2)
        assert conv.out_height == 17
        assert conv.out_width == 16

    def test_out_channels_equals_filters(self):
        assert self.make(num_filters=24).out_channels == 24

    def test_params_counts_weights_and_bias(self):
        conv = self.make()
        assert conv.params == 3 * 3 * 3 * 16 + 16

    def test_macs_formula(self):
        conv = self.make()
        assert conv.macs == 32 * 32 * 16 * (9 * 3)

    def test_macs_scale_with_stride(self):
        full = self.make(stride=1).macs
        strided = self.make(stride=2).macs
        assert strided == full // 4

    def test_ifmap_elements(self):
        assert self.make().ifmap_elements == 32 * 32 * 3

    def test_as_gemm_im2col_dimensions(self):
        gemm = self.make().as_gemm()
        assert gemm.m == 32 * 32
        assert gemm.k == 9 * 3
        assert gemm.n == 16

    def test_gemm_macs_match_conv_macs(self):
        conv = self.make(stride=2)
        assert conv.as_gemm().macs == conv.macs

    @pytest.mark.parametrize("field", ["in_height", "in_width", "in_channels",
                                       "num_filters", "kernel_size", "stride"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ConfigError):
            self.make(**{field: 0})

    @given(height=st.integers(1, 256), width=st.integers(1, 256),
           stride=st.integers(1, 4))
    def test_output_shape_ceil_property(self, height, width, stride):
        conv = self.make(in_height=height, in_width=width, stride=stride)
        assert conv.out_height == math.ceil(height / stride)
        assert conv.out_width == math.ceil(width / stride)


class TestDenseLayer:
    def test_params(self):
        assert DenseLayer("fc", 10, 5).params == 55

    def test_macs(self):
        assert DenseLayer("fc", 10, 5).macs == 50

    def test_as_gemm_single_row(self):
        gemm = DenseLayer("fc", 10, 5).as_gemm()
        assert (gemm.m, gemm.k, gemm.n) == (1, 10, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DenseLayer("fc", 0, 5)
        with pytest.raises(ConfigError):
            DenseLayer("fc", 10, -1)


class TestPoolLayer:
    def test_shape_floor_semantics(self):
        pool = PoolLayer("p", in_height=7, in_width=9, in_channels=4,
                         pool_size=2, stride=2)
        assert pool.out_height == 3
        assert pool.out_width == 4
        assert pool.out_channels == 4

    def test_no_params_no_macs(self):
        pool = PoolLayer("p", 8, 8, 4, 2, 2)
        assert pool.params == 0
        assert pool.macs == 0

    def test_shape_never_collapses_to_zero(self):
        pool = PoolLayer("p", in_height=1, in_width=1, in_channels=4,
                         pool_size=4, stride=4)
        assert pool.out_height == 1
        assert pool.out_width == 1


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(m=4, k=5, n=6).macs == 120

    def test_operand_elements(self):
        gemm = GemmShape(m=4, k=5, n=6)
        assert gemm.filter_elements == 30
        assert gemm.ofmap_elements == 24

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            GemmShape(m=0, k=1, n=1)
        with pytest.raises(ConfigError):
            GemmShape(m=1, k=-1, n=1)
