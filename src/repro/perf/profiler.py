"""The span tree: where a run's time and work went, scoped per context.

``with span(name):`` times one execution of a block as a :class:`Span`
node, a child of the span open when it started, or a root when none
was; ``count(key, n)`` adds ``n`` to ``key`` on the innermost open
span.  The open span lives in a :class:`contextvars.ContextVar`, and a
new thread starts with an empty context, so a second thread's cache
lookups never reach the span the main thread has open.  A count with no
span open is dropped, so code running outside any run -- a pool worker,
a unit test -- records nothing.  :func:`recorded_span` opens a span only
where it will be read, so a run nobody profiles keeps no tree: each
layer's span is then a root, dropped as its block ends.

A pool task's counts are made in the parent from the task's result, as
Phase 1 does with each template point's rollout steps.

The module imports only the standard library, so every layer can count
into it without an import cycle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional


@dataclass(eq=False)
class Span:
    """One timed execution of a block, its counts and its child spans."""

    name: str
    wall_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def total(self, key: str) -> float:
        """``key``'s count summed over this span and its descendants."""
        return self.counts.get(key, 0) + sum(
            child.total(key) for child in self.children)

    def find(self, name: str) -> List["Span"]:
        """Every descendant span called ``name``, in the order opened."""
        found = []
        for child in self.children:
            if child.name == name:
                found.append(child)
            found.extend(child.find(name))
        return found


_open_span: ContextVar[Optional[Span]] = ContextVar("repro_open_span",
                                                     default=None)


@contextmanager
def span(name: str) -> Iterator[Span]:
    """Time the block as a new span under the open one (or as a root).

    The span records its wall time even when the block raises.
    """
    node = Span(name)
    parent = _open_span.get()
    if parent is not None:
        parent.children.append(node)
    token = _open_span.set(node)
    start = time.perf_counter()
    try:
        yield node
    finally:
        node.wall_s = time.perf_counter() - start
        _open_span.reset(token)


def recorded_span(name: str, *, root: bool = False
                  ) -> ContextManager[Optional[Span]]:
    """:func:`span` where something will read it, else a no-op.

    The span opens under an open span, or as a root when the caller
    asks for one (``root=True``, as a profiled run does).  Otherwise
    the block runs untimed and the context yields ``None``.
    """
    if root or _open_span.get() is not None:
        return span(name)
    return nullcontext()


def count(key: str, n: float = 1) -> None:
    """Add ``n`` to ``key`` on the innermost open span, if one is open."""
    node = _open_span.get()
    if node is not None:
        node.counts[key] = node.counts.get(key, 0) + n


def _hit_rate(node: Span) -> str:
    hits, misses = node.total("cache.hits"), node.total("cache.misses")
    return f"{hits / (hits + misses):.1%}" if hits + misses else "-"


def _seconds(spans: List[Span]) -> float:
    return sum(node.wall_s for node in spans)


def _rate(amount: float, wall_s: float) -> float:
    return amount / wall_s if wall_s > 0 else 0.0


def render_profile(run: Span) -> str:
    """Render a run's span as the ``--profile`` table.

    Each child of ``run`` is one row (a phase) and every figure is a
    total over the row's subtree: ``evals`` and ``steps``,
    ``cache.hits``/``cache.misses``, and below the table the
    ``gp.fit`` spans with ``gp.full_fits``/``gp.factorisations`` and
    the ``gp.predict`` spans,
    ``proposal.groups``/``proposal.points``, the ``fidelity.screen`` and
    ``fidelity.tier1`` spans with ``fidelity.screened``,
    ``fidelity.promoted`` and ``fidelity.rail_promotions``, and the
    run's ``pool.fallbacks``/``pool.rerun_tasks``.  A counter line is
    printed only for a phase that saw that activity.
    """
    lines: List[str] = []
    lines.append("## Profile")
    header = (f"{'phase':<18} {'wall s':>8} {'evals':>7} "
              f"{'evals/s':>9} {'steps':>9} {'steps/s':>9} {'hit rate':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for phase in run.children:
        evaluations, steps = phase.total("evals"), phase.total("steps")
        evals_s = (f"{_rate(evaluations, phase.wall_s):.1f}"
                   if evaluations else "-")
        steps_s = f"{_rate(steps, phase.wall_s):.0f}" if steps else "-"
        lines.append(f"{phase.name:<18} {phase.wall_s:>8.3f} "
                     f"{evaluations or '-':>7} {evals_s:>9} "
                     f"{steps or '-':>9} {steps_s:>9} {_hit_rate(phase):>9}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<18} {run.wall_s:>8.3f} "
                 f"{run.total('evals') or '-':>7} "
                 f"{'':>9} "
                 f"{run.total('steps') or '-':>9} "
                 f"{'':>9} "
                 f"{_hit_rate(run):>9}")
    for phase in run.children:
        full_fits = phase.total("gp.full_fits")
        if full_fits:
            predicts = phase.find("gp.predict")
            lines.append(
                f"{phase.name} gp: {full_fits} full fits "
                f"({_seconds(phase.find('gp.fit')):.3f} s), "
                f"{phase.total('gp.factorisations')} factorisations, "
                f"{len(predicts)} predict calls ({_seconds(predicts):.3f} s)")
        groups = phase.total("proposal.groups")
        if groups:
            points = phase.total("proposal.points")
            lines.append(
                f"{phase.name} proposals: {groups} groups, {points} points, "
                f"mean group size {points / groups:.1f}")
        screened = phase.total("fidelity.screened")
        if screened:
            screens = phase.find("fidelity.screen")
            promoted = phase.total("fidelity.promoted")
            pruned = screened - promoted
            tier1_s = _seconds(phase.find("fidelity.tier1"))
            saved_s = pruned * (tier1_s / promoted) if promoted else 0.0
            lines.append(
                f"{phase.name} fidelity: {screened} screened in "
                f"{len(screens)} groups ({_seconds(screens):.3f} s), "
                f"{promoted} promoted ({promoted / screened:.0%}, "
                f"{phase.total('fidelity.rail_promotions')} via safety "
                f"rail), {pruned} simulator evals avoided "
                f"(~{saved_s:.2f} s saved)")
    fallbacks = run.total("pool.fallbacks")
    if fallbacks:
        lines.append(
            f"pool faults: {fallbacks} serial fallbacks, "
            f"{run.total('pool.rerun_tasks')} tasks rerun in the parent")
    return "\n".join(lines)
