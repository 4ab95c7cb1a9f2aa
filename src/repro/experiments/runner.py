"""Shared experiment harness.

Experiments reproduce the paper's evaluation (Section V): every driver
returns structured rows plus a plain-text rendering of the same series
the paper plots/tabulates.  A process-wide context caches AutoPilot
runs, mirroring the paper's phase-reuse across UAVs and scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.airlearning.scenarios import Scenario
from repro.baselines.computers import BaselineComputer
from repro.core.pipeline import AutoPilot, AutoPilotResult
from repro.core.spec import RunConfig, TaskSpec
from repro.nn.template import build_policy_network
from repro.uav.mission import MissionReport, evaluate_mission
from repro.uav.platforms import UavPlatform

#: Default evaluation budget for Phase 2 in experiments; the paper
#: prunes ~10^18 points to ~100s of candidates.
DEFAULT_BUDGET = 150
DEFAULT_SEED = 7
DEFAULT_SENSOR_FPS = 60.0


@dataclass
class ExperimentContext:
    """Caches AutoPilot pipelines and runs across experiment drivers."""

    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED
    sensor_fps: float = DEFAULT_SENSOR_FPS

    def __post_init__(self) -> None:
        self._autopilot = AutoPilot(RunConfig(seed=self.seed,
                                              budget=self.budget))
        self._runs: Dict[Tuple[str, Scenario], AutoPilotResult] = {}

    @property
    def autopilot(self) -> AutoPilot:
        """The shared pipeline instance (shared Phase 1/2 caches)."""
        return self._autopilot

    def task(self, platform: UavPlatform, scenario: Scenario) -> TaskSpec:
        """Build the task spec used across experiments."""
        return TaskSpec(platform=platform, scenario=scenario,
                        sensor_fps=self.sensor_fps)

    def run(self, platform: UavPlatform,
            scenario: Scenario) -> AutoPilotResult:
        """Run (or fetch the cached) AutoPilot result for a combo."""
        key = (platform.name, scenario)
        if key not in self._runs:
            task = self.task(platform, scenario)
            self._runs[key] = self._autopilot.run(task)
        return self._runs[key]

    def baseline_mission(self, baseline: BaselineComputer,
                         platform: UavPlatform,
                         scenario: Scenario) -> MissionReport:
        """Mission evaluation of a baseline computer running the
        scenario's best validated policy (the Fig. 5 convention: all
        points run the same policy; PULP runs at its reported rate)."""
        record = self._autopilot.database.best(scenario)
        network = build_policy_network(record.hyperparams)
        fps = baseline.throughput_fps(network)
        return evaluate_mission(
            platform=platform,
            compute_weight_g=baseline.weight_g,
            compute_power_w=baseline.power_w,
            compute_fps=fps,
            sensor_fps=self.sensor_fps,
        )


_GLOBAL_CONTEXT: Optional[ExperimentContext] = None


def global_context(budget: int = DEFAULT_BUDGET,
                   seed: int = DEFAULT_SEED) -> ExperimentContext:
    """The process-wide shared context (created on first use).

    Subsequent calls return the existing context even with different
    arguments, so every benchmark in a session shares Phase 1/2 work.
    """
    global _GLOBAL_CONTEXT
    if _GLOBAL_CONTEXT is None:
        _GLOBAL_CONTEXT = ExperimentContext(budget=budget, seed=seed)
    return _GLOBAL_CONTEXT


def format_table(headers: Sequence[str], rows: List[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as a fixed-width text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
