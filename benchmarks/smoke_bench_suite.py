"""Scenario-bench smoke benchmark for CI.

Sweeps the ``smoke``-tagged scenario subset across the nano platform
class through the full three-phase pipeline as one cache-sharing bench
run (``repro.bench``), checks the selections are sane, and merge-writes
each cell's knee-point numbers into ``BENCH_phase1.json`` under the
``bench_smoke_suite`` section -- one entry per scenario, so scenario
drift (a registry edit that silently moves a legacy knee point) shows
up as a results-file diff.

Run directly (exit code 0/1)::

    PYTHONPATH=src python benchmarks/smoke_bench_suite.py
"""

from __future__ import annotations

import sys
import time

from _results import PHASE1_RESULTS, merge_results
from repro.bench import BenchRunner, build_suite, render_bench_report
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig

BUDGET = 12
SEED = 3
PLATFORMS = ("nano",)


def run() -> int:
    suite = build_suite(tags=["smoke"], platforms=list(PLATFORMS))
    pilot = AutoPilot(RunConfig(seed=SEED, budget=BUDGET))
    started = time.perf_counter()
    result = BenchRunner(pilot).run(suite)
    elapsed = time.perf_counter() - started
    print(render_bench_report(
        result.metrics, title=f"bench smoke suite (budget {BUDGET}, "
                              f"seed {SEED}, {elapsed:.1f}s)"))

    failures = []
    if len(result.metrics) < 5:
        failures.append(f"expected >=5 smoke cells, got "
                        f"{len(result.metrics)}")
    for row in result.metrics:
        if not 0.0 < row.success_rate <= 1.0:
            failures.append(f"{row.scenario}: success rate "
                            f"{row.success_rate} outside (0, 1]")
        if row.frames_per_second <= 0.0:
            failures.append(f"{row.scenario}: non-positive throughput")

    measurements = {
        "budget": BUDGET,
        "seed": SEED,
        "platforms": list(PLATFORMS),
        "wall_s": round(elapsed, 3),
        "cells": {
            row.scenario: {
                "design": row.design,
                "knee_throughput_hz": round(row.knee_throughput_hz, 4),
                "num_missions": round(row.num_missions, 4),
                "soc_power_w": round(row.soc_power_w, 4),
                "success_rate": round(row.success_rate, 4),
            }
            for row in result.metrics
        },
    }
    merge_results(PHASE1_RESULTS, measurements, section="bench_smoke_suite")
    print(f"results merged into {PHASE1_RESULTS}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def test_bench_smoke_suite():
    assert run() == 0


if __name__ == "__main__":
    sys.exit(run())
