"""Sense-Plan-Act autonomy pipeline (Section VII extension)."""

from repro import _lazy_exports

_EXPORTS = {
    "OccupancyGrid": "mapping",
    "MappingStats": "mapping",
    "AStarPlanner": "planning",
    "PlanResult": "planning",
    "PurePursuitController": "control",
    "ControlCommand": "control",
    "SpaAgent": "agent",
    "SpaWorkloadStats": "agent",
    "SpaComputeModel": "agent",
    "run_spa_episode": "agent",
    "spa_success_rate": "agent",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
