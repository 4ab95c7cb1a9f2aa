"""Fast DSE-throughput smoke benchmark for CI.

Runs the full pipeline twice for one (UAV, scenario) task and checks
that the evaluation engine behaves: the second run must be served
largely from the content-addressed report cache (hit rate > 0, and in
practice near 100%), and evaluation throughput must be sane.

Run directly (exit code 0/1) or via pytest::

    PYTHONPATH=src python benchmarks/smoke_dse_throughput.py
"""

from __future__ import annotations

import sys
import time

from _results import PHASE2_RESULTS, merge_results
from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import reset_shared_cache, shared_report_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.uav.platforms import NANO_ZHANG

SMOKE_BUDGET = 30
SMOKE_SEED = 7


def run_smoke() -> dict:
    """Run the pipeline twice; return the measurements."""
    reset_shared_cache()
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)

    start = time.perf_counter()
    config = RunConfig(seed=SMOKE_SEED, budget=SMOKE_BUDGET)
    first = AutoPilot(config).run(task, profile=True)
    first_s = time.perf_counter() - start

    before = shared_report_cache().stats.snapshot()
    start = time.perf_counter()
    second = AutoPilot(config).run(task, profile=True)
    second_s = time.perf_counter() - start
    delta = shared_report_cache().stats.since(before)

    return {
        "first_s": first_s,
        "second_s": second_s,
        "first_missions": first.num_missions,
        "second_missions": second.num_missions,
        "repeat_hits": delta.hits,
        "repeat_misses": delta.misses,
        "repeat_hit_rate": delta.hit_rate,
        "evaluations": len(first.phase2.candidates),
    }


def check(measurements: dict) -> list:
    """Return a list of failure messages (empty when healthy)."""
    failures = []
    if measurements["evaluations"] != SMOKE_BUDGET:
        failures.append(
            f"expected {SMOKE_BUDGET} evaluations, got "
            f"{measurements['evaluations']}")
    if measurements["repeat_hit_rate"] <= 0.0:
        failures.append("repeated pipeline run had zero cache hit rate")
    if measurements["repeat_hit_rate"] <= 0.5:
        failures.append(
            f"repeated run hit rate {measurements['repeat_hit_rate']:.1%} "
            "<= 50%")
    if measurements["first_missions"] != measurements["second_missions"]:
        failures.append("cached re-run changed the selected design")
    return failures


def main() -> int:
    measurements = run_smoke()
    print("DSE throughput smoke benchmark")
    print(f"  first run:  {measurements['first_s']:.2f}s "
          f"({measurements['evaluations']} evaluations)")
    print(f"  second run: {measurements['second_s']:.2f}s "
          f"(hits={measurements['repeat_hits']} "
          f"misses={measurements['repeat_misses']} "
          f"hit rate={measurements['repeat_hit_rate']:.1%})")
    print(f"  missions per charge: {measurements['first_missions']:.1f}")
    merge_results(PHASE2_RESULTS, measurements, section="dse_throughput")
    print(f"  wrote {PHASE2_RESULTS.name} (dse_throughput section)")
    failures = check(measurements)
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK")
    return 1 if failures else 0


def test_smoke_dse_throughput():
    """Pytest entry point for the same checks."""
    assert check(run_smoke()) == []


if __name__ == "__main__":
    sys.exit(main())
