"""Process-parallel map for Phase 1 policy training.

Phase 1's trainer backend trains and validates every Table II template
point missing from the Air Learning database: seconds of pure rollouts
per point, coarse enough for a process pool to pay off.
:func:`parallel_map` fans such items out over a fresh
``ProcessPoolExecutor`` per call, one task per item, and returns the
results in input order.

It has one recovery rule: every task the pool does not return a result
for -- its worker died, its payload did not pickle, or it raised --
reruns serially in the parent.  Results the pool did return are kept.
The fallback is logged once per call and counted on the open span
(``pool.fallbacks`` and ``pool.rerun_tasks``, :func:`repro.perf.count`),
so an environmental failure recovers and a persistent error raises from
the rerun as its own type.  The tasks are deterministic, so a rerun
returns what the pool would have.

Deterministic fault injection lives in :mod:`repro.testing.faults`;
each task carries its index and the active injector (programmatic or
the ``REPRO_FAULTS`` env hook), so worker-side faults do not depend on
the multiprocessing start method.

Parallelism is off by default (``workers=1``).  Opt in per call site or
via the ``REPRO_WORKERS`` environment variable
(:func:`repro.core.phase1.resolve_workers`).  Phase 1 imports this
module only when it spawns a pool, and ``concurrent.futures`` and the
fault injector load only when a call actually does, so a serial run
loads none of this module, ``logging``, ``multiprocessing`` or
:mod:`repro.testing`.
"""

from __future__ import annotations

import logging
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    TypeVar)

from repro.perf.profiler import count

if TYPE_CHECKING:
    from repro.testing.faults import FaultInjector

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.core.parallel")

def _run_task(fn: Callable[[T], R], index: int, item: T,
              injector: Optional[FaultInjector]) -> R:
    """Pool worker: execute task ``index``, consulting the fault injector."""
    if injector is not None:
        injector.on_pool_task(index)
    return fn(item)


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: int = 1) -> List[R]:
    """Map ``fn`` over ``items`` with deterministic (input) ordering.

    Runs serially when ``workers <= 1`` or the batch is trivially
    small.  Otherwise each item is one task on a fresh process pool,
    and every task the pool returns no result for reruns serially in
    the parent, where a persistent error raises as itself.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.testing.faults import current_injector

    injector = current_injector()
    results: Dict[int, R] = {}
    failures: Dict[int, Exception] = {}
    executor = ProcessPoolExecutor(max_workers=min(workers, len(items)))
    try:
        futures = []
        try:
            for index, item in enumerate(items):
                futures.append(
                    executor.submit(_run_task, fn, index, item, injector))
        except BrokenProcessPool as exc:
            # A worker died before every task was submitted.
            failures.update(dict.fromkeys(range(len(futures), len(items)),
                                          exc))
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except Exception as exc:
                failures[index] = exc
    finally:
        executor.shutdown(cancel_futures=True)

    if failures:
        count("pool.fallbacks")
        count("pool.rerun_tasks", len(failures))
        first = min(failures)
        logger.warning(
            "process pool returned no result for %d of %d tasks "
            "(task %d: %s: %s); rerunning them serially",
            len(failures), len(items), first,
            type(failures[first]).__name__, failures[first])
        for index in sorted(failures):
            results[index] = fn(items[index])
    return [results[index] for index in range(len(items))]
