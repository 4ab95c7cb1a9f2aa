"""Human-readable design reports for AutoPilot results.

Produces the markdown summary a user would attach to a design review:
the task, the three phases' outputs, the selected DSSoC, its F-1
placement and the mission-level outcome.
"""

from __future__ import annotations

from typing import List

from repro.core.evalcache import shared_report_cache
from repro.core.pipeline import AutoPilotResult
from repro.perf import render_profile
from repro.soc.components import fixed_components
from repro.uav.f1_model import F1Model


def render_report(result: AutoPilotResult) -> str:
    """Render a full markdown report for one AutoPilot run."""
    task = result.task
    selected = result.selected
    candidate = selected.candidate
    mission = selected.mission
    design = candidate.design

    lines: List[str] = []
    lines.append(f"# AutoPilot design report — {task.platform.name}")
    lines.append("")
    lines.append("## Task")
    lines.append(f"- UAV class: {task.platform.uav_class.value} "
                 f"(base weight {task.platform.base_weight_g:.0f} g, "
                 f"battery {task.platform.battery_capacity_mah:.0f} mAh)")
    lines.append(f"- Deployment scenario: {task.scenario.value} obstacles")
    lines.append(f"- Sensor frame rate: {task.sensor_fps:.0f} FPS")
    lines.append("")

    lines.append("## Phase 1 — validated policies")
    best = result.phase1.database.best(task.scenario)
    lines.append(f"- Backend: {result.phase1.backend}")
    lines.append(f"- Policies in database: {len(result.phase1.database)}")
    lines.append(f"- Best success rate: {best.success_rate:.1%} "
                 f"({best.algorithm_id})")
    if result.phase1.env_steps:
        lines.append(f"- Rollout steps executed: "
                     f"{result.phase1.env_steps:,}")
    lines.append("")

    lines.append("## Phase 2 — design space exploration")
    lines.append(f"- Designs evaluated: {len(result.phase2.candidates)}")
    lines.append(f"- Pareto-optimal: "
                 f"{len(result.phase2.pareto_candidates())}")
    # The kernels always run on NumPy; the line stays verbatim because
    # the golden report digests in perfbench/workloads.py include it.
    lines.append("- Array backend: numpy [exact (bit-identical to the "
                 "NumPy oracle)]")
    lines.append("")

    lines.append("## Selected DSSoC")
    lines.append(f"- Policy: `{design.policy.identifier}` "
                 f"(success {candidate.success_rate:.1%})")
    lines.append(f"- Accelerator: {design.accelerator.describe()}")
    if result.phase3.finetuned:
        lines.append(f"- Fine-tuned: clock scaled "
                     f"{selected.clock_scale:.2f}x toward the knee-point")
    lines.append(f"- Throughput: {candidate.frames_per_second:.1f} FPS "
                 f"(latency "
                 f"{candidate.evaluation.latency_seconds * 1e3:.1f} ms)")
    lines.append(f"- SoC power: {candidate.soc_power_w:.2f} W "
                 f"(TDP {candidate.evaluation.tdp_w:.2f} W)")
    lines.append(f"- Compute payload: {candidate.compute_weight_g:.1f} g "
                 f"(heatsink "
                 f"{candidate.evaluation.weight.heatsink_weight_g:.1f} g "
                 f"+ motherboard "
                 f"{candidate.evaluation.weight.motherboard_weight_g:.0f} g)")
    lines.append("- Fixed components: "
                 + ", ".join(c.name for c in fixed_components()))
    lines.append("")

    lines.append("## F-1 analysis")
    f1 = F1Model(platform=task.platform,
                 compute_weight_g=mission.compute_weight_g,
                 sensor_fps=task.sensor_fps)
    lines.append(f"- Knee-point: {f1.knee_throughput_hz:.1f} Hz")
    lines.append(f"- Action throughput: "
                 f"{mission.action_throughput_hz:.1f} Hz "
                 f"({mission.verdict.value})")
    lines.append(f"- Velocity ceiling: {f1.velocity_ceiling:.2f} m/s; "
                 f"safe velocity: {mission.safe_velocity_m_s:.2f} m/s")
    lines.append("")

    lines.append("## Mission performance (Eq. 1-4)")
    lines.append(f"- Rotor power: {mission.rotor_power_w:.1f} W; "
                 f"compute: {mission.compute_power_w:.2f} W; "
                 f"others: {mission.other_power_w:.2f} W")
    lines.append(f"- Mission time: {mission.mission_time_s:.1f} s over "
                 f"{task.platform.mission_distance_m:.0f} m")
    lines.append(f"- Mission energy: {mission.mission_energy_j:.1f} J")
    lines.append(f"- **Missions per charge: {mission.num_missions:.1f}**")

    # Only runs with a cross-run persistent store get this section, so
    # default (memory-only) reports are byte-identical to before.
    cache = shared_report_cache()
    if cache.persist_dir is not None:
        occupancy = cache.disk_occupancy()
        stats = cache.stats
        lines.append("")
        lines.append("## Evaluation cache (persistent)")
        lines.append(f"- Store: {cache.persist_dir}")
        lines.append(f"- Occupancy: {occupancy.describe()}")
        lines.append(f"- This process: {stats.disk_hits} disk hits, "
                     f"{stats.disk_writes} writes, "
                     f"{stats.disk_evictions} evictions, "
                     f"{stats.migrated} migrated")

    if result.profile is not None:
        lines.append("")
        lines.append(render_profile(result.profile))
    return "\n".join(lines)
