"""Frequency scaling for architectural fine-tuning.

AutoPilot's Phase 3 fine-tunes the selected design when no Pareto
candidate sits exactly on the F-1 knee-point (Section III-C).  The
paper names two knobs, frequency scaling and technology-node scaling;
this reproduction models the first only.  Throughput scales linearly
with the clock, and dynamic power scales with ``f * V(f)^2``, where
supply voltage tracks frequency within a DVFS window.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError


def frequency_power_factor(clock_scale: float,
                           dvfs_window: Tuple[float, float] = (0.5, 1.5)) -> float:
    """Dynamic-power multiplier for a clock scaled by ``clock_scale``.

    Within the DVFS window, voltage tracks frequency, so power goes as
    ``f^3``; outside the window the voltage rail saturates and power goes
    linearly with ``f``.
    """
    if clock_scale <= 0:
        raise ConfigError("clock_scale must be positive")
    low, high = dvfs_window
    clamped = min(max(clock_scale, low), high)
    # Voltage factor within window; rails clamp outside it.
    voltage_factor = clamped
    return clock_scale * voltage_factor ** 2
