"""Checkpointing-overhead smoke benchmark for CI.

Runs the full pipeline with and without a checkpoint directory and
checks two properties of the fault-tolerant runtime:

* journalling every evaluation and rewriting the run manifest at phase
  boundaries costs < 5% wall-clock (with a small absolute floor so the
  check is stable on fast machines); and
* a run that is killed mid-phase-2 and resumed produces the same
  design as an uninterrupted run.

Run directly (exit code 0/1) or via pytest::

    PYTHONPATH=src python benchmarks/smoke_resume_overhead.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from _results import PHASE2_RESULTS, merge_results
from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import reset_shared_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.testing import faults
from repro.uav.platforms import NANO_ZHANG

CONFIG = RunConfig(seed=7, budget=30)
TIMING_REPEATS = 3
#: Relative overhead budget for checkpointing.
MAX_OVERHEAD = 0.05
#: Absolute slack (seconds) so sub-second runs do not flake on noise.
ABSOLUTE_FLOOR_S = 0.05


def _task() -> TaskSpec:
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


def _timed_run(checkpoint_dir=None):
    """One cold-cache pipeline run; returns (seconds, result)."""
    reset_shared_cache()
    start = time.perf_counter()
    result = AutoPilot(CONFIG).run(_task(), checkpoint_dir=checkpoint_dir)
    return time.perf_counter() - start, result


def run_smoke() -> dict:
    """Measure overhead and resume equivalence; return the numbers."""
    plain_s, baseline = min(
        (_timed_run() for _ in range(TIMING_REPEATS)),
        key=lambda pair: pair[0])

    checkpointed = []
    with tempfile.TemporaryDirectory() as root:
        for index in range(TIMING_REPEATS):
            run_dir = Path(root) / f"run-{index}"
            checkpointed.append(_timed_run(checkpoint_dir=run_dir))
        checkpoint_s, checkpoint_result = min(checkpointed,
                                              key=lambda pair: pair[0])

        # Kill the run mid-phase-2 (after the manifest and phase 1
        # journal are durable) and resume it from the same directory.
        resume_dir = Path(root) / "resumed"
        reset_shared_cache()
        try:
            with faults.active_faults("kill@checkpoint-write:35"):
                AutoPilot(CONFIG).run(_task(), checkpoint_dir=resume_dir)
        except faults.SimulatedKill:
            pass
        reset_shared_cache()
        resumed = AutoPilot(CONFIG).run(_task(), checkpoint_dir=resume_dir,
                                        resume=True)

    overhead_s = checkpoint_s - plain_s
    return {
        "plain_s": plain_s,
        "checkpoint_s": checkpoint_s,
        "overhead_s": overhead_s,
        "overhead_pct": overhead_s / plain_s if plain_s > 0 else 0.0,
        "baseline_missions": baseline.num_missions,
        "checkpoint_missions": checkpoint_result.num_missions,
        "resumed_missions": resumed.num_missions,
        "baseline_design": baseline.selected.candidate,
        "resumed_design": resumed.selected.candidate,
    }


def check(measurements: dict) -> list:
    """Return a list of failure messages (empty when healthy)."""
    failures = []
    over_pct = measurements["overhead_pct"] > MAX_OVERHEAD
    over_abs = measurements["overhead_s"] > ABSOLUTE_FLOOR_S
    if over_pct and over_abs:
        failures.append(
            f"checkpointing overhead {measurements['overhead_pct']:.1%} "
            f"({measurements['overhead_s']:.3f}s) exceeds "
            f"{MAX_OVERHEAD:.0%} budget")
    if measurements["checkpoint_missions"] != \
            measurements["baseline_missions"]:
        failures.append("checkpointed run changed the selected design")
    if measurements["resumed_missions"] != \
            measurements["baseline_missions"]:
        failures.append(
            "killed-and-resumed run diverged from the uninterrupted run")
    if measurements["resumed_design"] != measurements["baseline_design"]:
        failures.append(
            "killed-and-resumed run selected a different SoC design")
    return failures


def main() -> int:
    measurements = run_smoke()
    print("Checkpointing overhead smoke benchmark")
    print(f"  plain run:        {measurements['plain_s']:.3f}s "
          f"(best of {TIMING_REPEATS})")
    print(f"  checkpointed run: {measurements['checkpoint_s']:.3f}s "
          f"(+{measurements['overhead_s']:.3f}s, "
          f"{measurements['overhead_pct']:+.1%})")
    print(f"  missions per charge: baseline "
          f"{measurements['baseline_missions']:.1f}, resumed "
          f"{measurements['resumed_missions']:.1f}")
    # The design objects are not JSON; persist the numeric subset only.
    merge_results(PHASE2_RESULTS,
                  {key: value for key, value in measurements.items()
                   if not key.endswith("_design")},
                  section="resume_overhead")
    print(f"  wrote {PHASE2_RESULTS.name} (resume_overhead section)")
    failures = check(measurements)
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK")
    return 1 if failures else 0


def test_smoke_resume_overhead():
    """Pytest entry point for the same checks."""
    assert check(run_smoke()) == []


if __name__ == "__main__":
    sys.exit(main())
