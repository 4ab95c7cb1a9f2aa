"""Unit tests for the accelerator configuration."""

import pytest

from repro.errors import ConfigError
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)


def make_config(**overrides):
    params = dict(pe_rows=16, pe_cols=16, ifmap_sram_kb=64,
                  filter_sram_kb=64, ofmap_sram_kb=64)
    params.update(overrides)
    return AcceleratorConfig(**params)


class TestAcceleratorConfig:
    def test_num_pes(self):
        assert make_config(pe_rows=8, pe_cols=32).num_pes == 256

    def test_sram_bytes(self):
        config = make_config(ifmap_sram_kb=64)
        assert config.ifmap_sram_bytes == 64 * 1024

    def test_total_sram(self):
        config = make_config(ifmap_sram_kb=32, filter_sram_kb=64,
                             ofmap_sram_kb=128)
        assert config.total_sram_kb == 224

    def test_peak_macs_per_second(self):
        config = make_config(pe_rows=16, pe_cols=16)
        assert config.peak_macs_per_second == 256 * config.clock_hz

    def test_default_dataflow_weight_stationary(self):
        assert make_config().dataflow is Dataflow.WEIGHT_STATIONARY

    def test_scaled_clock(self):
        config = make_config()
        scaled = config.scaled_clock(0.5)
        assert scaled.clock_hz == pytest.approx(config.clock_hz * 0.5)
        # Everything else is preserved.
        assert scaled.pe_rows == config.pe_rows
        assert scaled.ifmap_sram_kb == config.ifmap_sram_kb

    def test_scaled_clock_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            make_config().scaled_clock(0.0)

    @pytest.mark.parametrize("field", ["pe_rows", "pe_cols", "ifmap_sram_kb",
                                       "filter_sram_kb", "ofmap_sram_kb"])
    def test_rejects_nonpositive_dims(self, field):
        with pytest.raises(ConfigError):
            make_config(**{field: 0})

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ConfigError):
            make_config(clock_hz=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            make_config(dram_bandwidth_bytes_per_cycle=0)

    def test_describe_mentions_geometry(self):
        text = make_config(pe_rows=32, pe_cols=8).describe()
        assert "32x8" in text
        assert "WS" in text


class TestHardwareSpace:
    def test_choice_lists_match_table2(self):
        assert PE_DIM_CHOICES == (8, 16, 32, 64, 128, 256, 512, 1024)
        assert SRAM_KB_CHOICES == (32, 64, 128, 256, 512, 1024, 2048, 4096)
