"""DSSoC assembly: fixed components, weight model and design evaluation."""

from repro.soc.components import (
    CAMERA_SENSOR,
    MCU_CORE,
    NUM_MCU_CORES,
    SENSOR_FRAMERATE_CHOICES,
    SENSOR_INTERFACE,
    FixedComponent,
    fixed_components,
    fixed_components_power_w,
)
from repro.soc.estimate import DesignBounds, Tier0Estimator, power_weight_floor
from repro.soc.dssoc import (
    DssocDesign,
    DssocEvaluation,
    DssocEvaluator,
    evaluate_dssoc,
)
from repro.soc.weight import (
    MOTHERBOARD_WEIGHT_G,
    ComputeWeight,
    compute_weight,
    heatsink_volume_cm3,
)

__all__ = [
    "FixedComponent",
    "MCU_CORE",
    "NUM_MCU_CORES",
    "CAMERA_SENSOR",
    "SENSOR_INTERFACE",
    "SENSOR_FRAMERATE_CHOICES",
    "fixed_components",
    "fixed_components_power_w",
    "DesignBounds",
    "Tier0Estimator",
    "power_weight_floor",
    "DssocDesign",
    "DssocEvaluation",
    "DssocEvaluator",
    "evaluate_dssoc",
    "ComputeWeight",
    "compute_weight",
    "heatsink_volume_cm3",
    "MOTHERBOARD_WEIGHT_G",
]
