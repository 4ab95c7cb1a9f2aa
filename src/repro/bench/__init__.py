"""Scenario bench harness: sweep the registry through AutoPilot.

The bench sweeps a filtered set of registered scenarios
(:mod:`repro.airlearning.scenarios`) crossed with UAV platform classes
through the full three-phase pipeline as *one* resumable,
cache-sharing run, and reports per-cell knee-point designs side by
side.  Surfaced on the command line as ``autopilot bench``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "BenchCell": "suite",
    "BenchSuite": "suite",
    "build_suite": "suite",
    "BenchRunner": "runner",
    "BenchResult": "runner",
    "BenchManifest": "runner",
    "CellMetrics": "metrics",
    "metrics_for": "metrics",
    "render_bench_report": "report",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
