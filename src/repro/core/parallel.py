"""Fault-tolerant, process-parallel batch evaluation of DSSoC designs.

Phase 2's optimisers hand the evaluation engine whole *batches* of
design points (initial sampling, NSGA-II generations, exhaustive
chunks).  This module fans a batch out over a process pool with
deterministic result ordering, deduplicates against the shared
content-addressed report cache first (a cached design never reaches the
pool), and -- new in the fault-tolerant runtime -- survives worker
failures without degrading the whole batch:

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

Workers keep their own warm simulator cache for the lifetime of the
pool; the parent merges every returned report into the process-wide
shared cache, so parallel and serial runs leave the cache in the same
state and produce bit-identical results in the same order.

Parallelism is off by default (``workers=1``): the analytical simulator
is fast enough that fork/pickle overhead only pays off for large
batches or expensive backends.  Opt in per call site or via the
``REPRO_WORKERS`` environment variable.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Callable, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.core.evalcache import design_key, shared_report_cache
from repro.core.workers import (ShmView, attach_view, publish_array,
                                resolve_pool_mode, unpublish, warm_pool)
from repro.errors import ConfigError
from repro.nn.workload import lower_network
from repro.soc.dssoc import DssocDesign, DssocEvaluation, DssocEvaluator
from repro.testing import faults

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.core.parallel")

#: Items per pickled work unit sent to a pool worker.
DEFAULT_CHUNKSIZE = 8

#: Environment variable enabling parallel evaluation process-wide.
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


@dataclass
class PoolStats:
    """Counters for pool failures and recoveries (process-wide).

    Mirrors :class:`repro.core.evalcache.CacheStats`: the profiler
    snapshots the module-wide instance per phase and reports deltas.
    """

    chunk_failures: int = 0      # chunk attempts that failed in a pool
    chunk_retries: int = 0       # chunks re-queued to a (new) pool
    pool_respawns: int = 0       # pools re-created after breaking
    poisoned_chunks: int = 0     # chunks that exhausted the retry budget
    serial_fallback_chunks: int = 0  # chunks executed serially in the parent
    unpicklable_chunks: int = 0  # chunks whose payload could not be pickled
    cold_dispatches: int = 0     # chunks submitted to per-call (cold) pools
    warm_dispatches: int = 0     # chunks submitted to the persistent pool
    warm_pool_spawns: int = 0    # warm-pool executor (re)spawns
    warm_pool_reuses: int = 0    # warm parallel_map calls served by reuse
    shm_batches: int = 0         # batches shipped via shared memory
    shm_bytes: int = 0           # payload bytes moved through shared memory

    @property
    def total_faults(self) -> int:
        """Failures observed (not the recoveries)."""
        return self.chunk_failures + self.unpicklable_chunks

    def snapshot(self) -> "PoolStats":
        """A copy, for delta accounting across a profiling window."""
        return PoolStats(**vars(self))

    def since(self, baseline: "PoolStats") -> "PoolStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return PoolStats(**{name: value - getattr(baseline, name)
                            for name, value in vars(self).items()})

    def merge(self, delta: "PoolStats") -> None:
        """Accumulate another stats record into this one."""
        for name, value in vars(delta).items():
            setattr(self, name, getattr(self, name) + value)


_pool_stats = PoolStats()


def pool_stats() -> PoolStats:
    """The process-wide pool failure/recovery counters."""
    return _pool_stats


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
        self.injector: Optional[faults.FaultInjector] = None

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
                 retry: RetryPolicy = DEFAULT_RETRY,
                 pool: str = "cold") -> List[R]:
    """Map ``fn`` over ``items`` with deterministic (input) ordering.

    Runs serially when ``workers <= 1`` or the batch is trivially
    small.  Otherwise the items are fanned out over a process pool in
    indexed chunks; a chunk whose worker dies or raises is retried with
    bounded exponential backoff on a re-spawned pool, and only chunks
    that exhaust the retry budget -- or whose payload cannot be pickled
    at all -- fall back to serial execution in the parent.  The result
    list is always ordered like ``items``; a persistent application
    error is re-raised from the serial fallback.

    ``pool`` selects the executor: ``"cold"`` (the oracle) spawns a
    fresh process pool for this call; ``"warm"`` borrows the shared
    persistent executor from :mod:`repro.core.workers`, amortising the
    spawn cost across calls.  Results are bit-identical either way --
    the retry/poison/serial machinery is shared.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    chunksize = max(1, chunksize)
    indexed = list(enumerate(items))
    chunks = [_Chunk(chunk_index, indexed[start:start + chunksize])
              for chunk_index, start in enumerate(
                  range(0, len(items), chunksize))]
    injector = faults.current_injector()
    for chunk in chunks:
        chunk.injector = injector

    warm = resolve_pool_mode(pool) == "warm"
    results: List[Optional[List[R]]] = [None] * len(chunks)
    pending: List[_Chunk] = list(chunks)
    serial: List[_Chunk] = []
    if warm:
        lease = warm_pool().acquire(workers)
        executor, generation = lease.executor, lease.generation
        if lease.spawned:
            _pool_stats.warm_pool_spawns += 1
        else:
            _pool_stats.warm_pool_reuses += 1
    else:
        generation = 0
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
                    if warm:
                        _pool_stats.warm_dispatches += 1
                    else:
                        _pool_stats.cold_dispatches += 1
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
                except faults.SimulatedKill:
                    raise
                except Exception as exc:
                    logger.warning(
                        "chunk %d raised %s on attempt %d: %s",
                        chunk.index, type(exc).__name__, chunk.attempt, exc)
                    _chunk_failed(chunk, retry, pending, serial)
            if pool_broken:
                _pool_stats.pool_respawns += 1
                logger.warning("re-spawning the process pool")
                if warm:
                    lease = warm_pool().refresh(generation)
                    executor, generation = lease.executor, lease.generation
                    if lease.spawned:
                        _pool_stats.warm_pool_spawns += 1
                else:
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(
                        max_workers=min(workers, len(chunks)))
            if pending:
                delay = max(retry.delay_s(chunk.attempt)
                            for chunk in pending)
                if delay > 0:
                    time.sleep(delay)
    finally:
        if not warm:
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


def _simulate_design(design: DssocDesign
                     ) -> Tuple[Tuple[object, ...], object]:
    """Pool worker: simulate one design, return its cache key + report."""
    from repro.nn.template import build_policy_network
    from repro.scalesim.simulator import SystolicArraySimulator

    workload = lower_network(build_policy_network(design.policy))
    key = design_key(workload, design.accelerator)
    report = SystolicArraySimulator(design.accelerator).run(workload)
    return key, report


#: Per-process cache of lowered workloads keyed by policy hyperparams.
#: Long-lived warm workers re-lower each template policy once instead of
#: once per design; lowering is deterministic, so the cached workload is
#: identical to a fresh one and results stay bit-identical to
#: :func:`_simulate_design`.  The template space is tiny (tens of
#: points), so the cache is unbounded.
_workload_by_policy: dict = {}


def _simulate_shm_row(view: ShmView, row_index: int
                      ) -> Tuple[Tuple[object, ...], object]:
    """Pool worker: simulate one packed design-matrix row.

    The batch payload arrives through the shared-memory segment named
    by ``view`` (attached once per worker per batch); only ``row_index``
    travelled through the pickle channel.  Produces exactly the
    ``(key, report)`` pair :func:`_simulate_design` would for the same
    design.
    """
    from repro.nn.template import build_policy_network
    from repro.scalesim.simulator import SystolicArraySimulator
    from repro.soc.batch import design_from_row

    design = design_from_row(attach_view(view)[row_index])
    workload = _workload_by_policy.get(design.policy)
    if workload is None:
        workload = lower_network(build_policy_network(design.policy))
        _workload_by_policy[design.policy] = workload
    key = design_key(workload, design.accelerator)
    report = SystolicArraySimulator(design.accelerator).run(workload)
    return key, report


class BatchDssocEvaluator:
    """Cache-aware, optionally process-parallel DSSoC batch evaluator.

    Args:
        workers: Process count; ``None`` consults ``REPRO_WORKERS`` and
            defaults to 1 (serial).
        chunksize: Designs per pickled work unit.
        operating_fps: Forwarded to :class:`DssocEvaluator`.
        retry: Retry schedule for failed pool chunks.
        pool: Executor mode; ``None`` consults ``REPRO_POOL`` and
            defaults to ``"cold"`` (fresh pool per batch, the oracle).
            ``"warm"`` reuses the persistent executor and ships the
            batch payload through shared memory -- bit-identical, just
            cheaper to dispatch.
    """

    def __init__(self, workers: Optional[int] = None,
                 chunksize: int = DEFAULT_CHUNKSIZE,
                 operating_fps: Optional[float] = None,
                 retry: RetryPolicy = DEFAULT_RETRY,
                 pool: Optional[str] = None):
        self.workers = resolve_workers(workers)
        self.chunksize = chunksize
        self.retry = retry
        self.pool = resolve_pool_mode(pool)
        self._evaluator = DssocEvaluator(operating_fps=operating_fps)

    @property
    def evaluator(self) -> DssocEvaluator:
        """The underlying (serial) design evaluator."""
        return self._evaluator

    def evaluate(self, design: DssocDesign) -> DssocEvaluation:
        """Evaluate one design (through the shared cache)."""
        return self._evaluator.evaluate(design)

    def evaluate_batch(self, designs: Sequence[DssocDesign]
                       ) -> List[DssocEvaluation]:
        """Evaluate a batch, simulating uncached designs in parallel.

        Results are ordered like ``designs``.  With ``workers > 1``
        only the simulation (the expensive, pure part) runs in the
        pool; power/weight assembly -- and, serially, the simulation of
        cache misses through the SoA batch kernel -- happens in-process
        via :meth:`DssocEvaluator.evaluate_batch`, so every returned
        evaluation is built against the parent's shared cache and is
        bit-identical to a scalar :meth:`evaluate` loop.
        """
        designs = list(designs)
        if self.workers > 1:
            missing = self._uncached_unique(designs)
            if len(missing) > 1:
                cache = shared_report_cache()
                for key, report in self._simulate_missing(missing):
                    cache.put(key, report)
        if len(designs) <= 1:
            return [self._evaluator.evaluate(design) for design in designs]
        return self._evaluator.evaluate_batch(designs)

    def _simulate_missing(self, missing: List[DssocDesign]
                          ) -> List[Tuple[Tuple[object, ...], object]]:
        """Fan the uncached designs out over the configured pool.

        Cold mode pickles the design objects per chunk (the oracle
        path).  Warm mode packs the batch into one design matrix,
        publishes it through shared memory and dispatches bare row
        indices to the persistent executor; the simulation performed
        per design is identical, so the returned ``(key, report)``
        pairs are bit-identical to the cold path.
        """
        if self.pool != "warm":
            return parallel_map(_simulate_design, missing,
                                workers=self.workers,
                                chunksize=self.chunksize, retry=self.retry)
        from functools import partial

        from repro.soc.batch import pack_design_matrix

        matrix = pack_design_matrix(missing)
        view, segment = publish_array(matrix)
        _pool_stats.shm_batches += 1
        _pool_stats.shm_bytes += matrix.nbytes
        try:
            return parallel_map(partial(_simulate_shm_row, view),
                                list(range(len(missing))),
                                workers=self.workers,
                                chunksize=self.chunksize, retry=self.retry,
                                pool="warm")
        finally:
            unpublish(segment)

    def _uncached_unique(self, designs: Iterable[DssocDesign]
                         ) -> List[DssocDesign]:
        """Deduplicated designs whose reports are not cached yet."""
        cache = shared_report_cache()
        seen = set()
        missing: List[DssocDesign] = []
        for design in designs:
            workload = lower_network(
                self._evaluator.network_for(design.policy))
            key = design_key(workload, design.accelerator)
            if key in seen or key in cache:
                continue
            seen.add(key)
            missing.append(design)
        return missing
