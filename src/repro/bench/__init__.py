"""Scenario bench harness: sweep the registry through AutoPilot.

The bench sweeps a filtered set of registered scenarios
(:mod:`repro.airlearning.scenarios`) crossed with UAV platform classes
through the full three-phase pipeline as *one* resumable,
cache-sharing run, and reports per-cell knee-point designs side by
side.  Surfaced on the command line as ``autopilot bench``.
"""

from repro.bench.metrics import CellMetrics, metrics_for
from repro.bench.report import render_bench_report
from repro.bench.runner import BenchManifest, BenchResult, BenchRunner
from repro.bench.suite import BenchCell, BenchSuite, build_suite

__all__ = [
    "BenchCell",
    "BenchSuite",
    "build_suite",
    "BenchRunner",
    "BenchResult",
    "BenchManifest",
    "CellMetrics",
    "metrics_for",
    "render_bench_report",
]
