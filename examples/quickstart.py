#!/usr/bin/env python
"""Quickstart: co-design a DSSoC for a nano-UAV in a dense environment.

Runs the full three-phase AutoPilot pipeline and prints the selected
E2E policy + accelerator, its compute metrics, and the mission-level
outcome on the target UAV.
"""

from repro import AutoPilot, NANO_ZHANG, RunConfig, Scenario, TaskSpec


def main() -> None:
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE,
                    sensor_fps=60.0)
    result = AutoPilot(RunConfig(seed=7, budget=100)).run(task)

    selected = result.selected
    candidate = selected.candidate
    mission = selected.mission

    print("=== AutoPilot quickstart ===")
    print(f"UAV:       {task.platform.name} ({task.platform.uav_class.value})")
    print(f"Scenario:  {task.scenario.value} obstacles")
    print(f"Phase 1:   {len(result.phase1.database)} validated policies, "
          f"best success "
          f"{result.phase1.best_success_rate(task):.2%}")
    print(f"Phase 2:   {len(result.phase2.candidates)} designs evaluated, "
          f"{len(result.phase2.pareto_candidates())} Pareto-optimal")
    print()
    print(f"Selected:  {candidate.design.describe()}")
    if result.phase3.finetuned:
        print(f"           (fine-tuned, clock scale "
              f"{selected.clock_scale:.2f}x)")
    print(f"Success:   {candidate.success_rate:.2%}")
    print(f"Compute:   {candidate.frames_per_second:.1f} FPS at "
          f"{candidate.soc_power_w:.2f} W SoC power, "
          f"{candidate.compute_weight_g:.1f} g payload")
    print()
    print(f"F-1 knee:  {result.phase3.knee_throughput_hz:.1f} Hz "
          f"(design verdict: {mission.verdict.value})")
    print(f"V_safe:    {mission.safe_velocity_m_s:.2f} m/s "
          f"(ceiling {mission.velocity_ceiling_m_s:.2f} m/s)")
    print(f"Missions:  {mission.num_missions:.1f} per battery charge")


if __name__ == "__main__":
    main()
