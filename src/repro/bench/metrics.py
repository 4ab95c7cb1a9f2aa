"""Per-cell bench metrics extracted from AutoPilot results.

One :class:`CellMetrics` row summarises the knee-point design AutoPilot
selected for one (scenario, platform) cell: the quantities the paper's
Fig. 11/12 comparisons are built on, flattened for the side-by-side
report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.suite import BenchCell
from repro.core.pipeline import AutoPilotResult


@dataclass(frozen=True)
class CellMetrics:
    """The knee-point design of one bench cell, flattened."""

    scenario: str
    platform_class: str
    platform: str
    #: Selected design identity (policy x accelerator).
    design: str
    #: Peak accelerator throughput of the selected design.
    frames_per_second: float
    #: Total SoC power of the selected design.
    soc_power_w: float
    #: Compute payload weight (heatsink feedback included).
    compute_weight_g: float
    #: Validated task success rate backing the selection.
    success_rate: float
    #: F-1 knee-point of the platform under the selected payload.
    knee_throughput_hz: float
    #: Missions per charge (Eq. 1-4) -- the paper's headline metric.
    num_missions: float


def metrics_for(cell: BenchCell, result: AutoPilotResult) -> CellMetrics:
    """Flatten one cell's AutoPilot result into its metrics row."""
    selected = result.selected
    candidate = selected.candidate
    return CellMetrics(
        scenario=cell.spec.id,
        platform_class=cell.platform_class,
        platform=result.task.platform.name,
        design=candidate.design.describe(),
        frames_per_second=candidate.frames_per_second,
        soc_power_w=candidate.soc_power_w,
        compute_weight_g=candidate.compute_weight_g,
        success_rate=candidate.success_rate,
        knee_throughput_hz=result.phase3.knee_throughput_hz,
        num_missions=selected.num_missions,
    )
