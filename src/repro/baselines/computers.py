"""Baseline onboard computers (Section V-A, Table V).

The paper compares AutoPilot DSSoCs against general-purpose embedded
platforms (Jetson TX2, Xavier NX, Intel NCS) and a dedicated nano-UAV
accelerator (PULP-DroNet).  Each baseline is modelled at datasheet
grade: a power envelope, a payload weight, and an effective compute
rate from which the throughput *for the same policy network* follows:

    FPS = effective_macs_per_second / network_MACs

Weights follow the paper's own compute-weight convention (Section
III-C): every onboard computer is charged the 20 g motherboard/PCB
baseline plus a heatsink sized to its power by the same natural-
convection model used for the AutoPilot designs.  This keeps the
cyber-physical comparison apples-to-apples -- weight differences
reflect thermal load, not mounting hardware.

PULP is the exception: the paper takes its reported 6 FPS @ 64 mW as-is
(an optimistic fixed-rate assumption, since the AutoPilot E2E models are
far larger than the DroNet network PULP was built for); we reproduce
that convention via ``fixed_fps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.nn.template import PolicyNetwork
from repro.soc.weight import compute_weight


@dataclass(frozen=True)
class BaselineComputer:
    """A fixed off-the-shelf onboard computer.

    Attributes:
        name: Marketing name.
        power_w: Typical inference power envelope.
        weight_g: Payload weight; when 0 (the default), it is derived
            from ``power_w`` via the paper's compute-weight model
            (20 g motherboard + TDP-sized heatsink).
        effective_macs_per_second: Sustained MAC rate on conv workloads
            (peak rate derated by a realistic utilisation).
        fixed_fps: When set, throughput is this constant regardless of
            the network (the paper's PULP convention).
        category: 'gpu', 'vpu' or 'dssoc', for reporting.
    """

    name: str
    power_w: float
    effective_macs_per_second: float
    weight_g: float = 0.0
    fixed_fps: Optional[float] = None
    category: str = "gpu"

    def __post_init__(self) -> None:
        if self.power_w <= 0:
            raise ConfigError(f"{self.name}: power must be positive")
        if self.weight_g < 0:
            raise ConfigError(f"{self.name}: weight must be non-negative")
        if self.weight_g == 0.0:
            derived = compute_weight(self.power_w).total_g
            object.__setattr__(self, "weight_g", derived)
        if self.effective_macs_per_second <= 0 and self.fixed_fps is None:
            raise ConfigError(
                f"{self.name}: needs a MAC rate or a fixed frame rate")

    def throughput_fps(self, network: PolicyNetwork) -> float:
        """Frames per second running ``network``."""
        if self.fixed_fps is not None:
            return self.fixed_fps
        macs = network.total_macs
        if macs <= 0:
            raise ConfigError("network has no compute")
        return self.effective_macs_per_second / macs


#: Jetson TX2: ~12 W sustained inference envelope; ~1.33 TFLOPS FP16
#: peak derated to ~35% on convolution workloads.
JETSON_TX2 = BaselineComputer(
    name="Jetson TX2",
    power_w=12.0,
    effective_macs_per_second=0.35 * 665e9,
    category="gpu",
)

#: Xavier NX: 10-15 W envelope; much higher INT8 rate (21 TOPS peak)
#: derated to ~20% sustained.
XAVIER_NX = BaselineComputer(
    name="Xavier NX",
    power_w=10.0,
    effective_macs_per_second=0.20 * 10.5e12,
    category="gpu",
)

#: PULP-DroNet: 64 mW, 6 FPS as reported [60] -- the paper's optimistic
#: convention keeps that rate even for the much larger AutoPilot E2E
#: models, and we follow it.
PULP_DRONET = BaselineComputer(
    name="PULP-DroNet",
    power_w=0.064,
    effective_macs_per_second=1.0,  # unused: fixed_fps applies
    fixed_fps=6.0,
    category="dssoc",
)

#: Intel Neural Compute Stick: ~1.5 W; the Myriad-2 VPU sustains only a
#: small fraction of its peak on USB-attached inference (~5 GMAC/s on
#: conv nets), which is what makes it compute-bound in Table V.
INTEL_NCS = BaselineComputer(
    name="Intel NCS",
    power_w=1.5,
    effective_macs_per_second=5e9,
    category="vpu",
)

#: The Fig. 5 comparison set.
FIG5_BASELINES: Tuple[BaselineComputer, ...] = (JETSON_TX2, XAVIER_NX,
                                                PULP_DRONET)

#: The Table V comparison set.
TABLE5_BASELINES: Tuple[BaselineComputer, ...] = (JETSON_TX2, INTEL_NCS)

ALL_BASELINES: Tuple[BaselineComputer, ...] = (JETSON_TX2, XAVIER_NX,
                                               PULP_DRONET, INTEL_NCS)
