"""DSSoC assembly: fixed components, weight model and design evaluation."""

from repro import _lazy_exports

_EXPORTS = {
    "FixedComponent": "components",
    "MCU_CORE": "components",
    "NUM_MCU_CORES": "components",
    "CAMERA_SENSOR": "components",
    "SENSOR_INTERFACE": "components",
    "SENSOR_FRAMERATE_CHOICES": "components",
    "fixed_components": "components",
    "fixed_components_power_w": "components",
    "DesignBounds": "estimate",
    "Tier0Estimator": "estimate",
    "power_weight_floor": "estimate",
    "DssocDesign": "dssoc",
    "DssocEvaluation": "dssoc",
    "DssocEvaluator": "dssoc",
    "evaluate_dssoc": "dssoc",
    "ComputeWeight": "weight",
    "compute_weight": "weight",
    "heatsink_volume_cm3": "weight",
    "MOTHERBOARD_WEIGHT_G": "weight",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
