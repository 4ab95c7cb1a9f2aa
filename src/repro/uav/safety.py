"""Safety model underlying the F-1 roofline.

The F-1 model [45], [46] is a *roofline-like* visual performance model
built on the high-speed-navigation safety bound of Liu et al. [51].
Two constraints bound the safe velocity:

* **Reaction (compute/sensor) bound** -- during one decision interval
  ``1 / action_throughput`` the UAV travels blind; safety caps the blind
  travel to a fraction ``BLIND_FRACTION`` of the sensing range ``d``:

      v <= BLIND_FRACTION * d * action_throughput

  This is the rising slope of the roofline: safe velocity grows
  linearly with action throughput.

* **Physics (actuation) bound** -- braking at ``a_max`` from velocity
  ``v`` must fit within the sensing range: ``v^2 / (2 a_max) <= d``,
  giving the ceiling ``v_max = sqrt(2 a_max d)``.

The knee-point -- the minimum action throughput that saturates the
ceiling -- is their intersection:

    T_knee = sqrt(2 a_max d) / (BLIND_FRACTION * d) = sqrt(2 a / d) / alpha

A single calibrated ``BLIND_FRACTION`` reproduces both knee-points the
paper reports in Fig. 11 (nano ~46 FPS, DJI Spark ~27 FPS).
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

#: Fraction of the sensing range the UAV may travel blind per decision
#: interval.  Calibrated so the Fig. 11 knee-points land at ~46 Hz
#: (nano) and ~27 Hz (DJI Spark).
BLIND_FRACTION = 0.1034

#: Relative band around the knee considered "balanced" by classifiers.
KNEE_FRACTION = 0.95


def velocity_ceiling(max_accel: float, sense_distance: float) -> float:
    """Physics-bound safe velocity (braking fits in the sensing range)."""
    if sense_distance <= 0:
        raise ConfigError("sense_distance must be positive")
    if max_accel <= 0:
        return 0.0
    return math.sqrt(2.0 * max_accel * sense_distance)


def safe_velocity(max_accel: float, sense_distance: float,
                  action_throughput_hz: float,
                  blind_fraction: float = BLIND_FRACTION) -> float:
    """Roofline safe velocity: min(reaction bound, physics ceiling)."""
    if sense_distance <= 0:
        raise ConfigError("sense_distance must be positive")
    if action_throughput_hz < 0:
        raise ConfigError("action_throughput_hz must be non-negative")
    if blind_fraction <= 0:
        raise ConfigError("blind_fraction must be positive")
    if max_accel <= 0 or action_throughput_hz == 0:
        return 0.0
    reaction_bound = blind_fraction * sense_distance * action_throughput_hz
    return min(velocity_ceiling(max_accel, sense_distance), reaction_bound)


def knee_throughput_hz(max_accel: float, sense_distance: float,
                       blind_fraction: float = BLIND_FRACTION) -> float:
    """Action throughput where the reaction bound meets the ceiling."""
    if sense_distance <= 0:
        raise ConfigError("sense_distance must be positive")
    if blind_fraction <= 0:
        raise ConfigError("blind_fraction must be positive")
    if max_accel <= 0:
        return 0.0
    return (velocity_ceiling(max_accel, sense_distance)
            / (blind_fraction * sense_distance))
