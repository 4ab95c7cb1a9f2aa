"""Fault-tolerant, process-parallel map for Phase 1 policy training.

Phase 1's trainer backend trains every Table II template point missing
from the Air Learning database with the CEM trainer: seconds of pure
rollouts per point, coarse enough for a process pool to pay off.
:func:`parallel_map` fans such items out over a fresh
``ProcessPoolExecutor`` per call, with deterministic result ordering,
and survives worker failures without degrading the whole batch:

* Work is split into indexed chunks.  A chunk whose worker dies
  (``BrokenProcessPool``) or raises is **re-queued with bounded
  exponential backoff** while the pool is re-spawned; results stay in
  input order.
* A chunk that keeps failing past :class:`RetryPolicy.max_attempts` is
  *poisoned* and falls back to serial execution in the parent -- where
  a persistent application error surfaces as the real exception instead
  of a broken pool.
* An **unpicklable payload** (``PicklingError`` and the
  ``AttributeError``/``TypeError`` shapes CPython's reducer raises for
  local functions) is not retried -- pickling is deterministic -- and
  falls back to serial for that chunk only.
* Every failure is counted in the module-wide :func:`pool_stats`
  (snapshotted per phase by :class:`repro.perf.Profiler`) and logged
  through ``logging.getLogger("repro.core.parallel")`` instead of being
  swallowed silently.

Deterministic fault injection for all of these paths lives in
:mod:`repro.testing.faults`; the runtime consults the active injector
(programmatic or the ``REPRO_FAULTS`` env hook) at the instrumented
sites and ships it to workers inside the chunk payload, so behaviour
does not depend on the multiprocessing start method.

Parallelism is off by default (``workers=1``).  Opt in per call site or
via the ``REPRO_WORKERS`` environment variable.  ``concurrent.futures``
and the fault injector are imported only when a call actually spawns a
pool, so a serial run loads neither ``multiprocessing`` nor
:mod:`repro.testing`.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.errors import ConfigError
from repro.perf.counters import PoolStats, pool_stats  # re-exported

if TYPE_CHECKING:
    from repro.testing.faults import FaultInjector

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.core.parallel")

#: Items per pickled work unit sent to a pool worker.
DEFAULT_CHUNKSIZE = 8

#: Environment variable enabling parallel Phase 1 training process-wide.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_WORKERS`` env > 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        else:
            workers = 1
    if workers <= 0:
        raise ConfigError("workers must be positive")
    return workers


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule for failed pool chunks.

    Args:
        max_attempts: Pool attempts per chunk before it is poisoned and
            executed serially in the parent.
        backoff_s: Base delay before re-queuing a failed round.
        backoff_multiplier: Exponential growth factor per attempt.
        max_backoff_s: Upper bound on the delay.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be positive")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before re-running a chunk that failed ``attempt`` times."""
        if self.backoff_s == 0.0:
            return 0.0
        delay = self.backoff_s * self.backoff_multiplier ** max(0, attempt - 1)
        return min(delay, self.max_backoff_s)


DEFAULT_RETRY = RetryPolicy()

_pool_stats = pool_stats()


class _Chunk:
    """One pickled work unit: (global index, item) pairs plus context.

    Carries its chunk index, the current attempt number and the active
    fault injector, so worker-side fault checks are deterministic
    regardless of which worker executes the chunk or how the pool was
    started.
    """

    __slots__ = ("index", "tasks", "attempt", "injector")

    def __init__(self, index: int, tasks: List[Tuple[int, object]]):
        self.index = index
        self.tasks = tasks
        self.attempt = 0
        self.injector: Optional[FaultInjector] = None

    def __getstate__(self) -> dict:
        if self.injector is not None:
            self.injector.on_chunk_pickle(self.index, self.attempt)
        return {"index": self.index, "tasks": self.tasks,
                "attempt": self.attempt, "injector": self.injector}

    def __setstate__(self, state: dict) -> None:
        self.index = state["index"]
        self.tasks = state["tasks"]
        self.attempt = state["attempt"]
        self.injector = state["injector"]


def _run_chunk(fn: Callable[[T], R], chunk: _Chunk) -> Tuple[int, List[R]]:
    """Pool worker: execute one chunk, consulting the fault injector."""
    values: List[R] = []
    for index, item in chunk.tasks:
        if chunk.injector is not None:
            chunk.injector.on_pool_task(index, chunk.attempt)
        values.append(fn(item))
    return chunk.index, values


#: Exception shapes meaning "this payload cannot be pickled" -- a
#: deterministic condition that retrying cannot fix.  AttributeError and
#: TypeError cover CPython's reducer errors for local/unbound callables.
#: These shapes are ambiguous -- a worker task can genuinely *raise*
#: TypeError/AttributeError -- so the handler additionally probe-pickles
#: the payload (:func:`_payload_pickles`) before classifying.
_UNPICKLABLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def _payload_pickles(fn: Callable, chunk: _Chunk) -> bool:
    """Whether the chunk payload itself serialises.

    Distinguishes a reducer failure (the payload really is unpicklable;
    retrying cannot help) from a ``TypeError``/``AttributeError`` raised
    *inside* the worker task, which must flow through the normal
    retry -> poison -> serial path so the true error surfaces.  The
    probe re-drives the ``chunk-pickle`` fault site, so an injected
    pickling fault still classifies as unpicklable.
    """
    try:
        pickle.dumps((fn, chunk), protocol=pickle.HIGHEST_PROTOCOL)
    except _UNPICKLABLE_ERRORS:
        return False
    return True


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: int = 1,
                 chunksize: int = DEFAULT_CHUNKSIZE,
                 retry: RetryPolicy = DEFAULT_RETRY) -> List[R]:
    """Map ``fn`` over ``items`` with deterministic (input) ordering.

    Runs serially when ``workers <= 1`` or the batch is trivially
    small.  Otherwise the items are fanned out over a fresh process pool
    in indexed chunks; a chunk whose worker dies or raises is retried
    with bounded exponential backoff on a re-spawned pool, and only
    chunks that exhaust the retry budget -- or whose payload cannot be
    pickled at all -- fall back to serial execution in the parent.  The
    result list is always ordered like ``items``; a persistent
    application error is re-raised from the serial fallback.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.testing.faults import SimulatedKill, current_injector

    chunksize = max(1, chunksize)
    indexed = list(enumerate(items))
    chunks = [_Chunk(chunk_index, indexed[start:start + chunksize])
              for chunk_index, start in enumerate(
                  range(0, len(items), chunksize))]
    injector = current_injector()
    for chunk in chunks:
        chunk.injector = injector

    results: List[Optional[List[R]]] = [None] * len(chunks)
    pending: List[_Chunk] = list(chunks)
    serial: List[_Chunk] = []
    executor = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
    try:
        while pending:
            round_chunks, pending = pending, []
            futures = []
            pool_broken = False
            for chunk in round_chunks:
                try:
                    futures.append((executor.submit(_run_chunk, fn, chunk),
                                    chunk))
                except BrokenProcessPool:
                    pool_broken = True
                    _chunk_failed(chunk, retry, pending, serial)
            for future, chunk in futures:
                try:
                    chunk_index, values = future.result()
                    results[chunk_index] = values
                except _UNPICKLABLE_ERRORS as exc:
                    if _payload_pickles(fn, chunk):
                        # The payload serialises, so the error was
                        # raised by the task itself: retry/poison like
                        # any other worker exception.
                        logger.warning(
                            "chunk %d raised %s on attempt %d: %s",
                            chunk.index, type(exc).__name__,
                            chunk.attempt, exc)
                        _chunk_failed(chunk, retry, pending, serial)
                        continue
                    _pool_stats.unpicklable_chunks += 1
                    logger.warning(
                        "chunk %d payload is unpicklable (%s: %s); "
                        "falling back to serial evaluation",
                        chunk.index, type(exc).__name__, exc)
                    serial.append(chunk)
                except BrokenProcessPool as exc:
                    pool_broken = True
                    logger.warning(
                        "process pool died while running chunk %d "
                        "(attempt %d): %s", chunk.index, chunk.attempt, exc)
                    _chunk_failed(chunk, retry, pending, serial)
                except SimulatedKill:
                    raise
                except Exception as exc:
                    logger.warning(
                        "chunk %d raised %s on attempt %d: %s",
                        chunk.index, type(exc).__name__, chunk.attempt, exc)
                    _chunk_failed(chunk, retry, pending, serial)
            if pool_broken:
                _pool_stats.pool_respawns += 1
                logger.warning("re-spawning the process pool")
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(
                    max_workers=min(workers, len(chunks)))
            if pending:
                delay = max(retry.delay_s(chunk.attempt)
                            for chunk in pending)
                if delay > 0:
                    time.sleep(delay)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    for chunk in serial:
        # The serial fallback runs in the parent without fault
        # instrumentation: a poisoned chunk either succeeds (the
        # failure was environmental) or raises the true error here.
        _pool_stats.serial_fallback_chunks += 1
        results[chunk.index] = [fn(item) for _, item in chunk.tasks]

    return [value for chunk_values in results for value in chunk_values]


def _chunk_failed(chunk: _Chunk, retry: RetryPolicy,
                  pending: List[_Chunk], serial: List[_Chunk]) -> None:
    """Book-keep one failed chunk attempt: re-queue or poison it."""
    _pool_stats.chunk_failures += 1
    chunk.attempt += 1
    if chunk.attempt >= retry.max_attempts:
        _pool_stats.poisoned_chunks += 1
        logger.warning(
            "chunk %d failed %d times; poisoned, will run serially",
            chunk.index, chunk.attempt)
        serial.append(chunk)
    else:
        _pool_stats.chunk_retries += 1
        pending.append(chunk)
