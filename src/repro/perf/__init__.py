"""Lightweight performance instrumentation for the AutoPilot pipeline.

One span tree answers the questions that matter for DSE cost (the
paper's 3-7 day Phase 2 loop): where did the time go, how many designs
per second were evaluated, and how much work did the content-addressed
cache absorb?  A profiled ``AutoPilot.run`` opens a ``run`` span with
one child per phase, the layers add their counts to whichever span is
open, and :func:`render_profile` prints the ``--profile`` table from it.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Span": "profiler",
    "span": "profiler",
    "recorded_span": "profiler",
    "count": "profiler",
    "render_profile": "profiler",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
