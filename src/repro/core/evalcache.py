"""Content-addressed evaluation cache for the DSSoC evaluation engine.

Phase 2 evaluates the same (policy network, accelerator config) pairs
over and over: every optimiser restart, every (UAV, scenario) pipeline
run, every fine-tune and every resumed checkpoint evaluates designs
that were already evaluated.  The seed implementation memoised run
reports per simulator instance keyed by ``(workload.name,
id(workload))`` -- a key that never hits in practice (``run_network``
lowers a fresh workload per call) and is unsound (CPython reuses
``id()`` values after garbage collection, so a recycled id plus a
template-shared network name could silently return a stale report for
a *different* workload).

This module replaces that with *content-addressed* keys derived from
what fixes the result -- the workload (its layer GEMM shapes and
operand byte sizes, or the template point it is lowered from) and the
accelerator (PE dimensions, SRAM sizes, dataflow, clock, DRAM
bandwidth) -- plus a small shared in-memory LRU cache.  It holds two
kinds of entry, each under its own key tag so they can never alias:

* finished DSSoC evaluations (:func:`evaluation_key`), which
  :class:`~repro.soc.dssoc.DssocEvaluator` stores, so each distinct
  (design, operating rate) pair is simulated and power-modelled once per
  process no matter how many DSE runs, fine-tunes, resumes or pipeline
  sweeps touch it -- a repeat is one hit and no work;
* tier-0 bound estimates (:func:`estimate_key`).

An entry here is the only stored copy of its result, and it never
outlives the process that computed it: checkpoints store no Phase 2
work at all, so a resume recomputes every result with the current code.

Phase 1 training results are not cached here: the Air Learning database
already trains each (template point, scenario) once per pipeline, so a
training cache on top of it would never hit.

The module is dependency-light on purpose: besides the standard library
it imports only :mod:`repro.errors` and :mod:`repro.perf.profiler`
(itself stdlib-only), so the leaf modules of the package (``scalesim``,
``soc``) can use it without import cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.errors import ConfigError
from repro.perf.profiler import count

#: Default in-memory capacity of the shared cache.  The full
#: Table II space has ~1.8M hardware points but any realistic DSE run
#: touches a few thousand; 16K entries of small frozen dataclasses is a
#: few tens of MB at most.
DEFAULT_CAPACITY = 16384


def workload_fingerprint(workload: Any) -> Tuple[Hashable, ...]:
    """Stable, content-only key for a lowered network workload.

    Covers everything the simulator reads: per-layer GEMM dimensions,
    stored ifmap footprint and operand width.  The workload *name* is
    deliberately excluded -- two same-named workloads with different
    layers must never alias (the seed bug), and two differently-named
    workloads with identical content are the same simulation.
    """
    return tuple(
        (layer.gemm.m, layer.gemm.k, layer.gemm.n,
         layer.stored_ifmap_elements, layer.bytes_per_element)
        for layer in workload.layers
    )


def config_fingerprint(config: Any) -> Tuple[Hashable, ...]:
    """Stable, content-only key for an accelerator configuration."""
    return (
        config.pe_rows,
        config.pe_cols,
        config.ifmap_sram_kb,
        config.filter_sram_kb,
        config.ofmap_sram_kb,
        config.dataflow.value,
        float(config.clock_hz),
        config.dram_bandwidth_bytes_per_cycle,
    )


def evaluation_key(design: Any, operating_fps: Optional[float]
                   ) -> Tuple[Hashable, ...]:
    """Content-addressed key for one finished DSSoC evaluation.

    The template point (the two policy hyper-parameters, which fix the
    lowered workload) and the accelerator content identify the design;
    the operating frame rate changes its power, so it is part of the
    key too.
    """
    policy = design.policy
    return ("dssoc_evaluation", policy.num_layers, policy.num_filters,
            config_fingerprint(design.accelerator), operating_fps)


def estimate_key(workload: Any, config: Any, *,
                 workload_fp: Tuple[Hashable, ...] | None = None
                 ) -> Tuple[Hashable, ...]:
    """Content-addressed key for one tier-0 bound estimate.

    The leading tag differs from :func:`evaluation_key`'s
    ``"dssoc_evaluation"``, so the low-fidelity estimates and the exact
    evaluations of the same design can never alias in the shared cache,
    whatever order the fidelity tiers touch it in.
    """
    if workload_fp is None:
        workload_fp = workload_fingerprint(workload)
    return ("tier0_estimate", config_fingerprint(config), workload_fp)


@dataclass
class CacheStats:
    """One cache's own hit, miss and eviction counts since it was cleared.

    A lookup also counts ``cache.hits`` or ``cache.misses`` on the open
    span (:func:`repro.perf.count`), which is how a profile attributes
    lookups to a run and its phases.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class EvalCache:
    """Thread-safe, in-memory LRU cache.

    Keys are hashable tuples of primitives (see :func:`evaluation_key`);
    values are immutable result records (e.g.
    :class:`~repro.soc.dssoc.DssocEvaluation`).

    Args:
        capacity: LRU entry bound.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Hashable, ...], Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[Hashable, ...]) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: Tuple[Hashable, ...]) -> Optional[Any]:
        """Look up ``key``; counts a hit or a miss.

        Returns ``None`` on a miss, so no entry may store ``None``.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        count("cache.misses" if value is None else "cache.hits")
        return value

    def put(self, key: Tuple[Hashable, ...], value: Any) -> None:
        """Insert ``key`` -> ``value``."""
        self.put_many([(key, value)])

    def put_many(self, items: Iterable[Tuple[Tuple[Hashable, ...], Any]]
                 ) -> None:
        """Insert many ``(key, value)`` pairs under one lock acquisition.

        ``Tier0Estimator.estimate_designs`` stores a screened group's
        estimates with it in one call.
        """
        items = list(items)
        with self._lock:
            entries = self._entries
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


# ----------------------------------------------------------------------
# The process-wide shared cache.
#
# One cache instance is shared by every evaluator and estimator in the
# process so identical designs are evaluated once across all pipeline
# runs.  ``configure_shared_cache`` swaps it (e.g. to shrink capacity in
# tests).

_shared_cache = EvalCache()
_shared_lock = threading.Lock()


def shared_report_cache() -> EvalCache:
    """The process-wide evaluation cache."""
    return _shared_cache


def configure_shared_cache(capacity: int = DEFAULT_CAPACITY) -> EvalCache:
    """Replace the shared cache with an empty one of ``capacity``."""
    global _shared_cache
    with _shared_lock:
        _shared_cache = EvalCache(capacity=capacity)
        return _shared_cache


def reset_shared_cache() -> None:
    """Drop every entry of the shared cache (used by tests/benchmarks).

    Takes the configuration lock so a clear racing a concurrent
    :func:`configure_shared_cache` swap always clears the *current*
    instance instead of one already being replaced.
    """
    with _shared_lock:
        _shared_cache.clear()
