"""Accelerator template configuration (Fig. 3a / Table II).

The DSSoC accelerator is a SCALE-Sim-style systolic array with three
scratchpads (IFMAP, Filter, OFMAP) and a DRAM behind a fixed-bandwidth
interface.  AutoPilot's hardware design space (Table II) varies:

    PE rows / PE columns  in {8, 16, 32, 64, 128, 256, 512, 1024}
    each SRAM size (KB)   in {32, 64, 128, 256, 512, 1024, 2048, 4096}

Dataflow, clock frequency and DRAM bandwidth are template-level knobs the
paper holds fixed; they are exposed here for ablation studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import ConfigError
from repro.units import KB

#: Table II hardware choice lists.
PE_DIM_CHOICES: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
SRAM_KB_CHOICES: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096)


class Dataflow(enum.Enum):
    """Systolic-array dataflow mapping strategies supported by SCALE-Sim."""

    OUTPUT_STATIONARY = "os"
    WEIGHT_STATIONARY = "ws"
    INPUT_STATIONARY = "is"


@dataclass(frozen=True)
class AcceleratorConfig:
    """One point in the accelerator hardware design space.

    Attributes:
        pe_rows: Systolic-array row count.
        pe_cols: Systolic-array column count.
        ifmap_sram_kb: Input feature-map scratchpad capacity (KB).
        filter_sram_kb: Filter scratchpad capacity (KB).
        ofmap_sram_kb: Output feature-map scratchpad capacity (KB).
        dataflow: Mapping strategy (default weight stationary, the
            SCALE-Sim default used for TPU-like templates).
        clock_hz: Array clock frequency.
        dram_bandwidth_bytes_per_cycle: Sustained DRAM interface width.
    """

    pe_rows: int
    pe_cols: int
    ifmap_sram_kb: int
    filter_sram_kb: int
    ofmap_sram_kb: int
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    clock_hz: float = 200e6
    dram_bandwidth_bytes_per_cycle: int = 32

    def __post_init__(self) -> None:
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            raise ConfigError("PE array dimensions must be positive")
        for name in ("ifmap_sram_kb", "filter_sram_kb", "ofmap_sram_kb"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")
        if self.dram_bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("dram_bandwidth_bytes_per_cycle must be positive")

    @property
    def num_pes(self) -> int:
        """Total processing elements."""
        return self.pe_rows * self.pe_cols

    @property
    def ifmap_sram_bytes(self) -> int:
        """IFMAP scratchpad capacity in bytes."""
        return self.ifmap_sram_kb * KB

    @property
    def filter_sram_bytes(self) -> int:
        """Filter scratchpad capacity in bytes."""
        return self.filter_sram_kb * KB

    @property
    def ofmap_sram_bytes(self) -> int:
        """OFMAP scratchpad capacity in bytes."""
        return self.ofmap_sram_kb * KB

    @property
    def total_sram_kb(self) -> int:
        """Total on-chip scratchpad capacity (KB)."""
        return self.ifmap_sram_kb + self.filter_sram_kb + self.ofmap_sram_kb

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput at full utilisation."""
        return self.num_pes * self.clock_hz

    def scaled_clock(self, factor: float) -> "AcceleratorConfig":
        """Return a copy with the clock scaled by ``factor`` (fine-tuning)."""
        if factor <= 0:
            raise ConfigError("clock scale factor must be positive")
        return replace(self, clock_hz=self.clock_hz * factor)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.pe_rows}x{self.pe_cols} PEs, "
                f"SRAM i/f/o = {self.ifmap_sram_kb}/{self.filter_sram_kb}/"
                f"{self.ofmap_sram_kb} KB, {self.dataflow.value.upper()}, "
                f"{self.clock_hz / 1e6:.0f} MHz")
