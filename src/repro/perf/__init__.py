"""Lightweight performance instrumentation for the AutoPilot pipeline.

Records per-phase wall time, evaluation throughput and evaluation-cache
hit rates with near-zero overhead, so a ``--profile`` run answers the
questions that matter for DSE cost (the paper's 3-7 day Phase 2 loop):
where did the time go, how many designs per second were evaluated, and
how much work did the content-addressed cache absorb?

The stat records' owners import :mod:`repro.perf.counters`, and the
profiler imports them back, so the profiler names are resolved on first
access like every package's exports.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Profiler": "profiler",
    "PhaseRecord": "profiler",
    "ProfileReport": "profiler",
    "render_profile": "profiler",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
