"""Physical constants and unit-conversion helpers.

The AutoPilot models mix electrical (W, mAh), mechanical (g, N, m/s) and
architectural (cycles, bytes) quantities.  Keeping every conversion in one
module avoids the classic unit-mismatch bugs in cyber-physical co-design
code.  Internally the library standardises on SI units (kg, m, s, W, J)
except where a quantity is conventionally expressed otherwise (grams for
component weights, KB for SRAM capacities); conversion helpers below make
each crossing explicit.
"""

from __future__ import annotations

#: Standard gravitational acceleration (m/s^2).
GRAVITY = 9.80665

#: Air density at sea level (kg/m^3), used by the momentum-theory rotor model.
AIR_DENSITY = 1.225

#: Density of aluminium (g/cm^3), used to weigh heatsinks.
ALUMINIUM_DENSITY_G_PER_CM3 = 2.70

KB = 1024
MB = 1024 * KB


def grams_to_kg(grams: float) -> float:
    """Convert grams to kilograms."""
    return grams / 1000.0


def mah_to_joules(capacity_mah: float, voltage: float) -> float:
    """Convert a battery rating (mAh at a nominal voltage) to joules.

    Energy [J] = capacity [Ah] * voltage [V] * 3600 [s/h].
    """
    return (capacity_mah / 1000.0) * voltage * 3600.0
