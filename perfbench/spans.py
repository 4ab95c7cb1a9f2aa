"""Outside-in span tracing of the AutoPilot layers.

A traced run wraps each layer's public entry points (:data:`TARGETS`)
before the CLI runs; nothing in the program is edited.  Every wrapped
call becomes a span (name, start, end, parent) and the counters a layer
metric needs are read at the same call boundaries.  Spans stay in
memory and are written as Chrome trace-event JSON when the run ends;
:func:`layer_metrics` turns such a trace back into the per-layer
numbers.

A target that cannot be resolved -- its module or attribute no longer
exists -- is recorded as absent instead of failing the run, and every
metric that reads it is then reported absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from stats import percentile

#: Modules searched for ``from ... import name`` bindings of a wrapped
#: function.
PACKAGE = "repro"
#: Span name of the ``import repro.cli`` interval.
IMPORT_SPAN = "startup.import"


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _size(value: Any) -> Optional[int]:
    return len(value) if hasattr(value, "__len__") else None


def _sized_arg(index: int, name: str, key: str) -> Callable:
    """A measure recording ``len()`` of one argument under ``key``."""
    def measure(args, kwargs, result, before):
        return {key: _size(_arg(args, kwargs, index, name))}
    return measure


def _cache_stats() -> Tuple[int, int]:
    from repro.core.evalcache import shared_report_cache
    stats = shared_report_cache().stats
    return stats.hits, stats.misses


def _measure_autopilot(args, kwargs, result, before):
    hits, misses = _cache_stats()
    return {"missions": float(result.num_missions),
            "cache_hits": hits - before[0],
            "cache_misses": misses - before[1]}


def _measure_dse(args, kwargs, result, before):
    record = result.optimization
    return {"evals": len(record.evaluations),
            "hypervolume": float(record.final_hypervolume(result.reference))}


def _pool_faults() -> int:
    from repro.core.parallel import pool_stats
    stats = pool_stats()
    return (stats.chunk_failures + stats.chunk_retries
            + stats.poisoned_chunks + stats.serial_fallback_chunks)


def _measure_dispatch(args, kwargs, result, before):
    return {"items": _size(_arg(args, kwargs, 1, "items")),
            "faults": _pool_faults() - before}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        path: Dotted path, ``package.module.function`` or
            ``package.module.Class.method``.
        measure: ``(args, kwargs, result, before) -> dict`` of counters
            stored on the span.
        before: Called on entry; its value is passed to ``measure``.
    """

    path: str
    measure: Optional[Callable] = None
    before: Optional[Callable[[], Any]] = None

    @property
    def name(self) -> str:
        """Span name: ``Class.method`` or ``function``."""
        parts = self.path.split(".")
        return ".".join(parts[-2:]) if parts[-2][:1].isupper() else parts[-1]


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.pipeline.AutoPilot.run", _measure_autopilot,
           _cache_stats),
    Target("repro.core.phase1.FrontEnd.run",
           lambda args, kwargs, result, before: {
               "env_steps": result.env_steps}),
    Target("repro.core.phase2.MultiObjectiveDse.run", _measure_dse),
    Target("repro.core.phase3.BackEnd.run"),
    Target("repro.optim.bayesopt.SmsEgoBayesOpt._propose"),
    Target("repro.optim.gp.MultiObjectiveGP.fit"),
    Target("repro.optim.gp.MultiObjectiveGP.predict"),
    Target("repro.optim.hypervolume.hypervolume_contributions",
           _sized_arg(1, "candidates", "rows")),
    Target("repro.optim.space.DesignSpace.encode_many",
           _sized_arg(1, "assignments", "rows")),
    Target("repro.optim.space.DesignSpace.sample_block"),
    Target("repro.soc.dssoc.DssocEvaluator.evaluate"),
    Target("repro.core.parallel.BatchDssocEvaluator.evaluate_batch",
           _sized_arg(1, "designs", "designs")),
    Target("repro.soc.batch.evaluate_design_batch",
           _sized_arg(1, "designs", "designs")),
    Target("repro.core.parallel.parallel_map", _measure_dispatch,
           _pool_faults),
    Target("repro.core.checkpoint.EvaluationJournal.append"),
    Target("repro.core.checkpoint.atomic_write_json"),
    Target("repro.core.checkpoint.atomic_write_pickle"),
    Target("repro.backend.autotune.Autotuner.save"),
    Target("repro.bench.runner.BenchRunner.run"),
    Target("repro.core.report.render_report"),
    Target("repro.bench.report.render_bench_report"),
    Target("repro.airlearning.trainer.CemTrainer.train"),
    Target("repro.airlearning.evaluate.validate_policy"),
    Target("repro.airlearning.vecenv.VecNavigationEnv.step"),
    Target("repro.airlearning.sensors.RaycastSensor.sense_batch"),
    Target("repro.airlearning.policy.BatchedMlpPolicy.act"),
)


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, value)`` for a dotted path.

    Imports the longest importable module prefix and walks the rest as
    attributes.  Raises :class:`LookupError` when nothing resolves.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"no importable module in {path}")
    try:
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    except AttributeError as exc:
        raise LookupError(f"{path}: {exc}") from None


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        #: ``[id, name, start, end, parent id, thread id, counters]``; a
        #: parent is entered before its children, so its id is smaller.
        self.spans: List[list] = []
        self._ids = itertools.count()
        #: Span name -> why its target could not be wrapped.
        self.absent: Dict[str, str] = {}
        self._local = threading.local()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere as a root span."""
        self.spans.append([next(self._ids), name, start, end, -1,
                           threading.get_ident(), None])

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for target in targets:
            try:
                owner, attribute, original = resolve(target.path)
            except LookupError as exc:
                self.absent[target.name] = str(exc)
                continue
            wrapper = self._wrap(target, original)
            if inspect.isclass(owner):
                setattr(owner, attribute, wrapper)
                continue
            # Patch the defining module and every module that bound the
            # function by name (``from module import function``).
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", None) or ""
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attribute_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute_name, wrapper)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer, name = self, target.name

        def guarded(hook: Callable, *args) -> Any:
            try:
                return hook(*args)
            except Exception as exc:  # a counter must not fail the run
                return {"counter_error": repr(exc)}

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            before = (guarded(target.before) if target.before is not None
                      else None)
            record = [next(tracer._ids), name, 0.0, None,
                      stack[-1] if stack else -1, threading.get_ident(), None]
            stack.append(record[0])
            tracer.spans.append(record)
            record[2] = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                stack.pop()
            if target.measure is not None:
                record[6] = guarded(target.measure, args, kwargs, result,
                                    before)
            return result

        return wrapper

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def chrome_trace(self, origin: float, metadata: Optional[dict] = None
                     ) -> dict:
        """The spans as Chrome trace-event JSON, timestamps from ``origin``.

        Each event carries its span ``id`` and ``parent`` id in ``args``
        with the recorded counters; spans still open are omitted.
        """
        pid = os.getpid()
        events = []
        for span_id, name, start, end, parent, tid, counters in self.spans:
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, **(counters or {})}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata or {}, absent=dict(self.absent))}

    def write(self, path: Path, origin: float,
              metadata: Optional[dict] = None) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        Path(path).write_text(json.dumps(self.chrome_trace(origin, metadata)))


# ----------------------------------------------------------------------
# Reading a trace back: self time and the per-layer metrics.

def covered(intervals: Iterable[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass(frozen=True)
class Span:
    """One recorded span, times in seconds from the trace origin."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    counters: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceView:
    """Queries over the spans of one trace."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = sorted(spans, key=lambda span: span.id)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        #: Span id -> names of its ancestors (parents have smaller ids).
        self.lineage: Dict[int, frozenset] = {}
        by_id = {span.id: span for span in self.spans}
        shared: Dict[frozenset, frozenset] = {}
        for span in self.spans:
            self.children[span.parent].append(span)
            self.by_name[span.name].append(span)
            parent = by_id.get(span.parent)
            names = (self.lineage[parent.id] | {parent.name}
                     if parent is not None else frozenset())
            self.lineage[span.id] = shared.setdefault(names, names)

    @classmethod
    def from_chrome(cls, trace: dict) -> "TraceView":
        spans = []
        for event in trace["traceEvents"]:
            args = dict(event["args"])
            span_id, parent = args.pop("id"), args.pop("parent")
            start = event["ts"] / 1e6
            spans.append(Span(span_id, parent, event["name"], start,
                              start + event["dur"] / 1e6, args))
        return cls(spans)

    def outermost(self, *names: str) -> List[Span]:
        """Spans named in ``names`` not nested in another such span."""
        return [span for name in names for span in self.by_name[name]
                if self.lineage[span.id].isdisjoint(names)]

    def within(self, name: str, ancestor: str) -> List[Span]:
        """Spans named ``name`` with an ``ancestor``-named ancestor."""
        return [span for span in self.by_name[name]
                if ancestor in self.lineage[span.id]]

    def count(self, *names: str) -> int:
        return len(self.outermost(*names))

    def total(self, *names: str) -> float:
        """Inclusive seconds in ``names``, nested repeats counted once."""
        return sum(span.duration for span in self.outermost(*names))

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part its child spans cover."""
        return span.duration - covered(
            ((child.start, child.end) for child in self.children[span.id]),
            span.start, span.end)

    def self_total(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.by_name[name])

    def counter(self, key: str, *names: str) -> float:
        return sum(span.counters.get(key) or 0
                   for span in self.outermost(*names))

    def root_coverage(self) -> float:
        """Seconds covered by the root spans."""
        roots = self.children[-1]
        if not roots:
            return 0.0
        return covered(((s.start, s.end) for s in roots),
                       min(s.start for s in roots), max(s.end for s in roots))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pct(spans: List[Span], p: int) -> float:
    return percentile([span.duration for span in spans], p) if spans else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric of the traced run.

    ``spans`` are the span names it reads: if any of their targets was
    absent the metric is reported absent.  ``compute(view, run)`` gets
    the trace and a dict of the traced run's wall time
    (``traced_wall_s``), the same less the time spent writing the trace
    (``program_wall_s``) and the untraced median (``untraced_wall_s``).
    """

    name: str
    unit: str
    better: str
    spans: Tuple[str, ...]
    compute: Callable[[TraceView, dict], float]


def _count(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", spans,
                       lambda v, r: v.count(*spans))


def _seconds(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", spans,
                       lambda v, r: v.total(*spans))


def _self_seconds(name: str, span: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,),
                       lambda v, r: v.self_total(span))


def _sum(name: str, key: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", spans,
                       lambda v, r: v.counter(key, *spans))


RUN, FRONT, DSE, BACK = ("AutoPilot.run", "FrontEnd.run",
                         "MultiObjectiveDse.run", "BackEnd.run")
PROPOSE = "SmsEgoBayesOpt._propose"
BENCH = "BenchRunner.run"
CHECKPOINT = ("EvaluationJournal.append", "atomic_write_json",
              "atomic_write_pickle")
REPORTS = ("render_report", "render_bench_report")

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    _seconds("startup.import_s", IMPORT_SPAN),
    _seconds("phase1.s", FRONT),
    _seconds("phase2.s", DSE),
    _seconds("phase3.s", BACK),
    LayerMetric("phase2.evals", "count", "higher", (DSE,),
                lambda v, r: v.counter("evals", DSE)),
    LayerMetric("phase2.evals_per_s", "evals/s", "higher", (DSE,),
                lambda v, r: _ratio(v.counter("evals", DSE), v.total(DSE))),
    LayerMetric("phase1.env_steps", "count", "higher", (FRONT,),
                lambda v, r: v.counter("env_steps", FRONT)),
    LayerMetric("phase1.steps_per_s", "steps/s", "higher", (FRONT,),
                lambda v, r: _ratio(v.counter("env_steps", FRONT),
                                    v.total(FRONT))),
    _count("proposal.groups", PROPOSE),
    LayerMetric("proposal.p50_s", "s", "lower", (PROPOSE,),
                lambda v, r: _pct(v.outermost(PROPOSE), 50)),
    LayerMetric("proposal.p90_s", "s", "lower", (PROPOSE,),
                lambda v, r: _pct(v.outermost(PROPOSE), 90)),
    _self_seconds("proposal.self_s", PROPOSE),
    _count("gp.fit_calls", "MultiObjectiveGP.fit"),
    _seconds("gp.fit_s", "MultiObjectiveGP.fit"),
    _seconds("gp.predict_s", "MultiObjectiveGP.predict"),
    _count("acq.hv_calls", "hypervolume_contributions"),
    _sum("acq.hv_rows", "rows", "hypervolume_contributions"),
    _seconds("acq.hv_s", "hypervolume_contributions"),
    _sum("space.encode_rows", "rows", "DesignSpace.encode_many"),
    _seconds("space.encode_s", "DesignSpace.encode_many"),
    _seconds("space.sample_s", "DesignSpace.sample_block"),
    _count("eval.scalar_calls", "DssocEvaluator.evaluate"),
    _seconds("eval.scalar_s", "DssocEvaluator.evaluate"),
    _count("eval.batch_calls", "BatchDssocEvaluator.evaluate_batch"),
    _sum("eval.batch_designs", "designs",
         "BatchDssocEvaluator.evaluate_batch"),
    _sum("kernel.designs", "designs", "evaluate_design_batch"),
    _seconds("kernel.s", "evaluate_design_batch"),
    _count("dispatch.calls", "parallel_map"),
    _sum("dispatch.items", "items", "parallel_map"),
    _seconds("dispatch.wait_s", "parallel_map"),
    _sum("dispatch.faults", "faults", "parallel_map"),
    LayerMetric("cache.lookups", "count", "lower", (RUN,),
                lambda v, r: (v.counter("cache_hits", RUN)
                              + v.counter("cache_misses", RUN))),
    LayerMetric("cache.hit_ratio", "ratio", "higher", (RUN,),
                lambda v, r: _ratio(v.counter("cache_hits", RUN),
                                    v.counter("cache_hits", RUN)
                                    + v.counter("cache_misses", RUN))),
    _count("checkpoint.writes", *CHECKPOINT),
    _seconds("checkpoint.s", *CHECKPOINT),
    _count("autotune.saves", "Autotuner.save"),
    _seconds("autotune.s", "Autotuner.save"),
    _count("phase3.calls", BACK),
    _self_seconds("phase3.self_s", BACK),
    LayerMetric("bench.cells", "count", "higher", (RUN, BENCH),
                lambda v, r: len(v.within(RUN, BENCH))),
    LayerMetric("bench.cell_p50_s", "s", "lower", (RUN, BENCH),
                lambda v, r: _pct(v.within(RUN, BENCH), 50)),
    LayerMetric("bench.cell_p80_s", "s", "lower", (RUN, BENCH),
                lambda v, r: _pct(v.within(RUN, BENCH), 80)),
    _seconds("bench.report_s", *REPORTS),
    _count("trainer.calls", "CemTrainer.train"),
    _seconds("trainer.s", "CemTrainer.train"),
    _count("validate.calls", "validate_policy"),
    _seconds("validate.s", "validate_policy"),
    _count("vecenv.steps", "VecNavigationEnv.step"),
    _self_seconds("vecenv.self_s", "VecNavigationEnv.step"),
    _seconds("sensors.s", "RaycastSensor.sense_batch"),
    _seconds("policy.s", "BatchedMlpPolicy.act"),
    LayerMetric("trace.overhead_s", "s", "lower", (),
                lambda v, r: r["traced_wall_s"] - r["untraced_wall_s"]),
    LayerMetric("trace.coverage", "ratio", "higher", (),
                lambda v, r: _ratio(v.root_coverage(), r["program_wall_s"])),
)


def layer_metrics(view: TraceView, absent: Dict[str, str], run: dict
                  ) -> Dict[str, dict]:
    """Every :data:`LAYER_METRICS` entry for one traced run.

    Returns ``name -> {"value", "unit", "status"}`` where status is
    ``"ok"``, ``"zero"`` (measured 0: the workload does not exercise the
    layer) or ``"absent"`` (a target it reads could not be wrapped).
    """
    out = {}
    for metric in LAYER_METRICS:
        if any(name in absent for name in metric.spans):
            value, status = 0.0, "absent"
        else:
            value = float(metric.compute(view, run))
            status = "ok" if value else "zero"
        out[metric.name] = {"value": value, "unit": metric.unit,
                            "status": status}
    return out
