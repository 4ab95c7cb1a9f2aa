"""The F-1 cyber-physical roofline model [45], [46].

F-1 plots safe velocity against action throughput for a loaded UAV.
Three regimes emerge (Fig. 4):

* **compute/sensor bound** (left of the knee): more action throughput
  buys velocity;
* **physics bound** (right of the knee): velocity saturates at the
  ceiling set by agility, which itself *drops* as compute payload
  weight rises -- the "lowering of ceilings" of Fig. 4a;
* the **knee-point** is the balanced design point AutoPilot targets.

Action throughput is the rate of the whole sense-compute-control
pipeline: ``min(sensor FPS, compute FPS)`` (the PID control loop at
100 kHz is never the bottleneck, per Table IV).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.uav.physics import max_acceleration
from repro.uav.platforms import UavPlatform
from repro.uav.safety import (
    knee_throughput_hz,
    safe_velocity,
    velocity_ceiling,
)

#: Tolerance band (relative to the knee) for "balanced" classification.
BALANCE_TOLERANCE = 0.25


class ProvisioningVerdict(enum.Enum):
    """Where a design sits relative to the F-1 knee-point."""

    UNDER_PROVISIONED = "under-provisioned"
    BALANCED = "balanced"
    OVER_PROVISIONED = "over-provisioned"


@dataclass(frozen=True)
class F1Model:
    """F-1 roofline for one platform at one compute payload weight.

    Attributes:
        platform: The base UAV.
        compute_weight_g: Onboard-computer payload (SoC + heatsink + PCB).
        sensor_fps: Camera frame rate bounding the pipeline.
    """

    platform: UavPlatform
    compute_weight_g: float
    sensor_fps: float = 60.0

    def __post_init__(self) -> None:
        if self.compute_weight_g < 0:
            raise ConfigError("compute_weight_g must be non-negative")
        if self.sensor_fps <= 0:
            raise ConfigError("sensor_fps must be positive")

    @property
    def max_accel(self) -> float:
        """Agility at this payload (m/s^2)."""
        return max_acceleration(self.platform, self.compute_weight_g)

    @property
    def velocity_ceiling(self) -> float:
        """Physics-bound safe velocity at this payload."""
        return velocity_ceiling(self.max_accel, self.platform.sense_distance_m)

    @property
    def knee_throughput_hz(self) -> float:
        """Minimum action throughput that saturates safe velocity."""
        return knee_throughput_hz(self.max_accel,
                                  self.platform.sense_distance_m)

    def action_throughput_hz(self, compute_fps: float) -> float:
        """Pipeline decision rate: sensor- or compute-bound."""
        if compute_fps < 0:
            raise ConfigError("compute_fps must be non-negative")
        return min(compute_fps, self.sensor_fps)

    def safe_velocity(self, compute_fps: float) -> float:
        """Safe velocity when the pipeline runs at ``compute_fps``."""
        throughput = self.action_throughput_hz(compute_fps)
        return safe_velocity(self.max_accel, self.platform.sense_distance_m,
                             throughput)

    def classify(self, compute_fps: float,
                 tolerance: float = BALANCE_TOLERANCE) -> ProvisioningVerdict:
        """Classify a design as under-/over-provisioned or balanced."""
        knee = self.knee_throughput_hz
        if knee <= 0:
            return ProvisioningVerdict.OVER_PROVISIONED
        throughput = self.action_throughput_hz(compute_fps)
        if throughput < knee * (1.0 - tolerance):
            return ProvisioningVerdict.UNDER_PROVISIONED
        if throughput > knee * (1.0 + tolerance):
            return ProvisioningVerdict.OVER_PROVISIONED
        return ProvisioningVerdict.BALANCED

    def curve(self, throughputs_hz: Sequence[float]) -> np.ndarray:
        """Sample the roofline: safe velocity at each action throughput.

        Unlike :meth:`safe_velocity`, the sensor bound is *not* applied,
        so the full curve can be plotted as in Fig. 4.
        """
        return np.array([
            safe_velocity(self.max_accel, self.platform.sense_distance_m, t)
            for t in throughputs_hz
        ])

    def is_sensor_bound(self, compute_fps: float) -> bool:
        """True when the sensor, not compute, limits the pipeline."""
        return self.sensor_fps < compute_fps
