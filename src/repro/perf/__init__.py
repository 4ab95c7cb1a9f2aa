"""Lightweight performance instrumentation for the AutoPilot pipeline.

Records per-phase wall time, evaluation throughput and evaluation-cache
hit rates with near-zero overhead, so a ``--profile`` run answers the
questions that matter for DSE cost (the paper's 3-7 day Phase 2 loop):
where did the time go, how many designs per second were evaluated, and
how much work did the content-addressed cache absorb?

The profiler names are resolved on first access: the stat records it
reads import :mod:`repro.perf.counters`, and loading
:mod:`repro.perf.profiler` eagerly here would import them back while
they are still initialising.
"""

__all__ = [
    "Profiler",
    "PhaseRecord",
    "ProfileReport",
    "render_profile",
]


def __getattr__(name):
    if name in __all__:
        from repro.perf import profiler
        return getattr(profiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
