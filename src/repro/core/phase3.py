"""Phase 3 -- domain-specific back end (Fig. 1, right).

Lowers Phase 2's candidate designs onto the target UAV: each candidate
is mapped through the F-1 model (its TDP sizes a heatsink, the payload
weight reshapes the roofline, its throughput sets the action rate) and
scored by the number of missions (Eq. 1-4).  The candidate maximising
missions is AutoPilot's selection ('AP').

When no candidate sits at the knee-point, architectural fine-tuning
scales the selected design's clock within a DVFS window toward it
(Section III-C).  The paper's other fine-tuning knob, technology-node
scaling, is not reproduced: Phase 3 fine-tunes the clock only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.core.phase2 import CandidateDesign
from repro.core.spec import TaskSpec
from repro.core.strategies import filter_by_success
from repro.errors import ConfigError
from repro.power.technology import frequency_power_factor
from repro.soc.components import fixed_components_power_w
from repro.soc.dssoc import DssocDesign, DssocEvaluator
from repro.soc.weight import compute_weight
from repro.uav.f1_model import F1Model
from repro.uav.mission import MissionReport, evaluate_mission


@dataclass(frozen=True)
class RankedDesign:
    """A candidate with its mission-level evaluation on the target UAV."""

    candidate: CandidateDesign
    mission: MissionReport
    clock_scale: float = 1.0

    @property
    def num_missions(self) -> float:
        """Mission count on a full charge."""
        return self.mission.num_missions


@dataclass
class Phase3Result:
    """Back-end output: the AP selection plus the ranked alternatives."""

    selected: RankedDesign
    ranked: List[RankedDesign] = field(default_factory=list)
    knee_throughput_hz: float = 0.0
    finetuned: bool = False


class BackEnd:
    """Phase 3 driver."""

    #: Clock-scale grid explored during fine-tuning.
    _TUNING_SCALES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.25, 1.5)

    def __init__(self, enable_finetuning: bool = True,
                 weight_feedback: bool = True):
        """``weight_feedback=False`` ablates the heatsink-weight coupling
        (the compute payload is charged only its motherboard weight)."""
        self.enable_finetuning = enable_finetuning
        self.weight_feedback = weight_feedback

    # ------------------------------------------------------------------
    def mission_for(self, candidate: CandidateDesign,
                    task: TaskSpec) -> MissionReport:
        """Eq. 1-4 evaluation of one candidate on the task's UAV."""
        if self.weight_feedback:
            weight_g = candidate.compute_weight_g
        else:
            weight_g = candidate.evaluation.weight.motherboard_weight_g
        return evaluate_mission(
            platform=task.platform,
            compute_weight_g=weight_g,
            compute_power_w=candidate.soc_power_w,
            compute_fps=candidate.frames_per_second,
            sensor_fps=task.sensor_fps,
        )

    def run(self, candidates: List[CandidateDesign],
            task: TaskSpec) -> Phase3Result:
        """Select the mission-optimal design, fine-tuning if useful."""
        pool = filter_by_success(candidates, task)
        ranked = sorted(
            (RankedDesign(candidate=c, mission=self.mission_for(c, task))
             for c in pool),
            key=lambda r: -r.num_missions)
        if not ranked:
            raise ConfigError("phase 3 received no eligible candidates")

        selected = ranked[0]
        knee = self._knee_for(selected, task)
        finetuned = False
        if self.enable_finetuning:
            tuned = self._finetune(selected, task)
            if tuned is not None and tuned.num_missions > selected.num_missions:
                selected = tuned
                finetuned = True
                knee = self._knee_for(selected, task)

        return Phase3Result(selected=selected, ranked=ranked,
                            knee_throughput_hz=knee, finetuned=finetuned)

    # ------------------------------------------------------------------
    def _knee_for(self, ranked: RankedDesign, task: TaskSpec) -> float:
        f1 = F1Model(platform=task.platform,
                     compute_weight_g=ranked.mission.compute_weight_g,
                     sensor_fps=task.sensor_fps)
        return f1.knee_throughput_hz

    def _finetune(self, selected: RankedDesign,
                  task: TaskSpec) -> Optional[RankedDesign]:
        """Frequency-scale the selected design toward the knee-point."""
        knee = self._knee_for(selected, task)
        fps = selected.candidate.frames_per_second
        if fps <= 0 or knee <= 0:
            return None
        # Aim the clock so throughput lands on the knee, then search a
        # small neighbourhood of that target on the scale grid.
        target = knee / fps
        scales = sorted(set(self._TUNING_SCALES) | {float(np.clip(target,
                                                                  0.5, 1.5))})
        best: Optional[RankedDesign] = None
        for scale in scales:
            tuned = self._retune(selected.candidate, scale, task)
            if best is None or tuned.num_missions > best.num_missions:
                best = tuned
        return best

    def _retune(self, candidate: CandidateDesign, scale: float,
                task: TaskSpec) -> RankedDesign:
        """Re-evaluate a candidate at a scaled clock with DVFS power."""
        design = candidate.design
        scaled = DssocDesign(
            policy=design.policy,
            accelerator=design.accelerator.scaled_clock(scale),
        )
        evaluation = DssocEvaluator().evaluate(scaled)
        # Voltage tracks frequency inside the DVFS window: per-operation
        # energy scales with V^2, which the cycle-level models do not
        # capture, so apply it to the accelerator share of power here.
        fixed_w = fixed_components_power_w()
        voltage_sq = frequency_power_factor(scale) / scale
        accel_w = max(0.0, evaluation.soc_power_w - fixed_w) * voltage_sq
        tdp_accel_w = max(0.0, evaluation.tdp_w - fixed_w) * voltage_sq
        adjusted = replace(
            evaluation,
            soc_power_w=fixed_w + accel_w,
            tdp_w=fixed_w + tdp_accel_w,
            weight=compute_weight(fixed_w + tdp_accel_w),
        )
        tuned_candidate = CandidateDesign(
            evaluation=adjusted,
            success_rate=candidate.success_rate,
        )
        return RankedDesign(
            candidate=tuned_candidate,
            mission=self.mission_for(tuned_candidate, task),
            clock_scale=scale,
        )
