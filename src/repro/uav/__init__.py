"""UAV platforms, flight physics, F-1 roofline and mission model."""

from repro import _lazy_exports

_EXPORTS = {
    "UavPlatform": "platforms",
    "UavClass": "platforms",
    "ASCTEC_PELICAN": "platforms",
    "DJI_SPARK": "platforms",
    "NANO_ZHANG": "platforms",
    "ALL_PLATFORMS": "platforms",
    "platform_by_name": "platforms",
    "platform_by_class": "platforms",
    "total_mass_kg": "physics",
    "thrust_to_weight": "physics",
    "max_acceleration": "physics",
    "can_lift": "physics",
    "hover_power_w": "physics",
    "rotor_power_w": "physics",
    "FIGURE_OF_MERIT": "physics",
    "FLIGHT_POWER_FACTOR": "physics",
    "safe_velocity": "safety",
    "velocity_ceiling": "safety",
    "knee_throughput_hz": "safety",
    "KNEE_FRACTION": "safety",
    "BLIND_FRACTION": "safety",
    "F1Model": "f1_model",
    "ProvisioningVerdict": "f1_model",
    "BALANCE_TOLERANCE": "f1_model",
    "evaluate_mission": "mission",
    "MissionReport": "mission",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
