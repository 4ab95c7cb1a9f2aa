"""Content-addressed evaluation cache for the DSSoC evaluation engine.

Phase 2 evaluates the same (policy network, accelerator config) pairs
over and over: every optimiser restart, every (UAV, scenario) pipeline
run and every ablation re-simulates designs that were already simulated.
The seed implementation memoised run reports per simulator instance
keyed by ``(workload.name, id(workload))`` -- a key that never hits in
practice (``run_network`` lowers a fresh workload per call) and is
unsound (CPython reuses ``id()`` values after garbage collection, so a
recycled id plus a template-shared network name could silently return a
stale report for a *different* workload).

This module replaces that with a *content-addressed* key derived from
the full workload and accelerator content (layer GEMM shapes, operand
byte sizes, PE dimensions, SRAM sizes, dataflow, clock, DRAM bandwidth)
plus a small shared LRU cache with optional on-disk persistence, so
identical designs are simulated exactly once per process (or once ever,
with persistence enabled) no matter how many simulators, DSE runs or
pipeline sweeps touch them.

The module is dependency-light on purpose: it only imports the standard
library and :mod:`repro.errors`, so the leaf modules of the package
(``scalesim``, ``soc``) can use it without import cycles.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple)

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import ConfigError

#: Bump when the simulator/power semantics change so persisted entries
#: from older code versions cannot be replayed against new semantics.
CACHE_SCHEMA_VERSION = 1

#: Default in-memory capacity of the shared report cache.  The full
#: Table II space has ~1.8M hardware points but any realistic DSE run
#: touches a few thousand; 16K entries of small frozen dataclasses is a
#: few tens of MB at most.
DEFAULT_CAPACITY = 16384

#: Hex-digest prefix length used for disk-store shard subdirectories.
#: Two characters give 256 shards -- at the millions-of-entries scale a
#: cross-run store reaches, that keeps per-directory entry counts in
#: the low thousands and lets concurrent writers lock per shard instead
#: of per store.
SHARD_WIDTH = 2

#: Number of shard subdirectories (``16 ** SHARD_WIDTH``).
NUM_SHARDS = 16 ** SHARD_WIDTH


class _MissType:
    """Sentinel distinguishing 'absent from the cache' from a stored
    ``None`` value, so legitimately-``None`` results are cacheable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<MISS>"


#: The unique miss marker returned by :meth:`EvalCache.lookup`.
_MISS = _MissType()


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


def design_key(workload: Any, config: Any, *,
               workload_fp: Tuple[Hashable, ...] | None = None
               ) -> Tuple[Hashable, ...]:
    """Content-addressed key for one (workload, accelerator) simulation.

    ``workload_fp`` lets batch callers hoist the (per-layer) workload
    fingerprint out of a loop over many configs of the same workload.
    """
    if workload_fp is None:
        workload_fp = workload_fingerprint(workload)
    return ("run_report", CACHE_SCHEMA_VERSION,
            config_fingerprint(config), workload_fp)


def estimate_key(workload: Any, config: Any, *,
                 workload_fp: Tuple[Hashable, ...] | None = None
                 ) -> Tuple[Hashable, ...]:
    """Content-addressed key for one tier-0 bound estimate.

    The leading tag differs from :func:`design_key`'s ``"run_report"``
    so the low-fidelity estimates and the exact simulation reports of
    the same (workload, config) pair can never alias in the shared
    cache, whatever order the fidelity tiers touch it in.
    """
    if workload_fp is None:
        workload_fp = workload_fingerprint(workload)
    return ("tier0_estimate", CACHE_SCHEMA_VERSION,
            config_fingerprint(config), workload_fp)


def trainer_fingerprint(trainer: Any) -> Tuple[Hashable, ...]:
    """Stable, content-only key for a Phase 1 CEM trainer configuration.

    Covers everything that shapes a training run's result: population
    and elite sizes, episode/iteration budgets, the exploration noise,
    the seed (it drives both the parameter sampling and the arena
    stream) and the rollout engine.  Two trainers differing in *any* of
    these must never alias; the engine is included defensively even
    though the engines are bit-equivalent.
    """
    return (
        "cem",
        trainer.population_size,
        trainer.elite_count,
        trainer.episodes_per_candidate,
        trainer.iterations,
        float(trainer.initial_std),
        int(trainer.seed),
        str(trainer.engine),
    )


def training_key(trainer: Any, hyperparams: Any,
                 scenario: Any) -> Tuple[Hashable, ...]:
    """Content-addressed key for one Phase 1 policy training run."""
    return ("training_result", CACHE_SCHEMA_VERSION,
            trainer_fingerprint(trainer),
            (hyperparams.num_layers, hyperparams.num_filters),
            scenario.value)


def key_digest(key: Tuple[Hashable, ...]) -> str:
    """Hex digest of a cache key, used as the on-disk file name."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or one observation window)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    #: Corrupt on-disk entries quarantined (renamed aside) during loads.
    corrupt: int = 0
    #: Entries published (admitted) to the disk store.
    disk_writes: int = 0
    #: Disk entries removed to respect ``disk_capacity``.
    disk_evictions: int = 0
    #: Legacy flat-layout disk entries lazily moved into their shard.
    migrated: int = 0

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

    def snapshot(self) -> "CacheStats":
        """A copy, for delta accounting across a profiling window."""
        return CacheStats(**vars(self))

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return CacheStats(**{name: value - getattr(baseline, name)
                             for name, value in vars(self).items()})

    def merge(self, delta: "CacheStats") -> None:
        """Accumulate another stats record into this one."""
        for name, value in vars(delta).items():
            setattr(self, name, getattr(self, name) + value)


@dataclass(frozen=True)
class DiskOccupancy:
    """One scan of a persistent store's on-disk footprint."""

    entries: int
    total_bytes: int
    shards: int
    #: Entries still in the pre-shard flat layout (readable, migrated
    #: lazily on first touch).
    legacy_entries: int

    def describe(self) -> str:
        """One-line human-readable summary."""
        text = (f"{self.entries} entries in {self.shards} shards "
                f"({self.total_bytes / 1e6:.1f} MB)")
        if self.legacy_entries:
            text += f", {self.legacy_entries} awaiting shard migration"
        return text


class EvalCache:
    """Thread-safe LRU cache with optional on-disk persistence.

    Keys are hashable tuples of primitives (see :func:`design_key`);
    values are immutable result records (e.g.
    :class:`~repro.scalesim.report.RunReport`).  When ``persist_dir``
    is set, entries are additionally pickled to
    ``<persist_dir>/<digest[:2]>/<sha256(key)>.pkl`` and survive
    process restarts -- a miss first consults the disk store before
    recomputing.

    The disk store is safe for concurrent multi-process use: entries
    publish atomically (write-temp + ``os.replace``), cross-file
    operations (legacy migration, capacity eviction) serialise on a
    per-shard ``flock`` so writers of different shards never contend,
    and readers never block -- a torn or corrupt entry is impossible to
    observe by construction, and anything unreadable is quarantined as
    a miss.  Entries written by the pre-shard flat layout are still
    readable and are migrated into their shard on first touch.

    Args:
        capacity: In-memory LRU entry bound.
        persist_dir: Directory of the on-disk store (``None`` disables
            persistence).
        disk_capacity: Optional bound on persisted entries.  Enforced
            per shard (``disk_capacity / NUM_SHARDS``, at least 1) by
            evicting the oldest entries after a publish overflows the
            shard, so concurrent writers only ever scan one shard.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 persist_dir: Optional[os.PathLike] = None,
                 disk_capacity: Optional[int] = None):
        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        if disk_capacity is not None and disk_capacity <= 0:
            raise ConfigError("disk capacity must be positive")
        self.capacity = capacity
        self.persist_dir = Path(persist_dir) if persist_dir else None
        self.disk_capacity = disk_capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Hashable, ...], Any]" = OrderedDict()
        self._lock = threading.Lock()
        # In-flight computations keyed by cache key: [key_lock, refcount].
        # Guarded by self._lock; see get_or_compute.
        self._inflight: Dict[Tuple[Hashable, ...], List[Any]] = {}
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[Hashable, ...]) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def lookup(self, key: Tuple[Hashable, ...]) -> Any:
        """Look up ``key``; returns :data:`_MISS` when absent.

        Unlike :meth:`get` this distinguishes a stored ``None`` (a hit)
        from an absent entry, so ``None`` is a first-class cache value.
        Counts a hit or a miss either way.
        """
        with self._lock:
            if key in self._entries:
                value = self._entries[key]
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
        value = self._load_from_disk(key)
        with self._lock:
            if value is not _MISS:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, value)
            else:
                self.stats.misses += 1
        return value

    def get(self, key: Tuple[Hashable, ...]) -> Optional[Any]:
        """Look up ``key``; counts a hit or a miss.

        Returns ``None`` on a miss -- callers that may cache ``None``
        values should use :meth:`lookup` / :meth:`get_or_compute`.
        """
        value = self.lookup(key)
        return None if value is _MISS else value

    def put(self, key: Tuple[Hashable, ...], value: Any) -> None:
        """Insert ``key`` -> ``value`` (and persist it, if enabled)."""
        with self._lock:
            self._insert(key, value)
        self._save_to_disk(key, value)

    def put_many(self, items: Iterable[Tuple[Tuple[Hashable, ...], Any]]
                 ) -> None:
        """Insert many ``(key, value)`` pairs under one lock acquisition.

        Semantically identical to calling :meth:`put` per pair; the
        batched evaluation path uses it to amortise locking and LRU
        bookkeeping over whole design pools.
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
        if self.persist_dir is not None:
            for key, value in items:
                self._save_to_disk(key, value)

    def get_or_compute(self, key: Tuple[Hashable, ...],
                       compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss.

        Concurrent callers missing the same key serialise on a per-key
        in-flight lock: exactly one runs ``compute()`` while the rest
        block and are then served the stored value -- so parallel
        sweeps never double-simulate a design.  Distinct keys never
        contend, and ``self._lock`` is never held while computing, so
        nested ``get_or_compute`` calls for other keys cannot deadlock.
        """
        value = self.lookup(key)
        if value is not _MISS:
            return value
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = self._inflight[key] = [threading.Lock(), 0]
            entry[1] += 1
            key_lock = entry[0]
        try:
            with key_lock:
                value = self.lookup(key)
                if value is _MISS:
                    value = compute()
                    self.put(key, value)
        finally:
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0 and self._inflight.get(key) is entry:
                    del self._inflight[key]
        return value

    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters.

        On-disk entries are left in place: persistence exists precisely
        to outlive in-memory resets.
        """
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _insert(self, key: Tuple[Hashable, ...], value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: Tuple[Hashable, ...]) -> Optional[Path]:
        if self.persist_dir is None:
            return None
        digest = key_digest(key)
        return self.persist_dir / digest[:SHARD_WIDTH] / f"{digest}.pkl"

    def _legacy_disk_path(self, key: Tuple[Hashable, ...]) -> Optional[Path]:
        """Where the pre-shard flat layout stored ``key``."""
        if self.persist_dir is None:
            return None
        return self.persist_dir / f"{key_digest(key)}.pkl"

    @contextmanager
    def _shard_lock(self, shard_dir: Path) -> Iterator[None]:
        """Exclusive advisory lock on one shard directory.

        Serialises the cross-file operations of one shard (legacy
        migration, capacity eviction) across processes; plain reads and
        the atomic temp+rename publish never take it.  Degrades to a
        no-op where ``fcntl`` is unavailable -- single-process use
        stays correct, only cross-process eviction races widen.
        """
        shard_dir.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with (shard_dir / ".lock").open("w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _load_from_disk(self, key: Tuple[Hashable, ...]) -> Any:
        path = self._disk_path(key)
        if path is None:
            return _MISS
        if not path.exists():
            legacy = self._legacy_disk_path(key)
            if legacy.exists():
                self._migrate_legacy(legacy, path)
            # Probe the shard again: another process may have moved the
            # legacy entry into it since the first probe.
            if not path.exists():
                return _MISS
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError) as exc:
            # A corrupt or stale entry is a miss, never an error -- but
            # it is quarantined (renamed aside) so it is not re-parsed
            # on every subsequent load, and the event is surfaced.
            self._quarantine(path, exc)
            return _MISS

    def _migrate_legacy(self, legacy: Path, path: Path) -> None:
        """Move one flat-layout entry into its shard, tolerating races.

        ``os.replace`` is atomic, so a reader concurrent with the move
        sees the entry at exactly one of the two paths; the shard lock
        keeps two migrating processes from both counting the move.
        """
        with self._shard_lock(path.parent):
            if path.exists():
                return  # another process migrated it first
            try:
                os.replace(legacy, path)
            except OSError:
                return  # lost a race (or legacy vanished) -- re-probe
            with self._lock:
                self.stats.migrated += 1

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt persisted entry aside and count the event."""
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None
        with self._lock:
            self.stats.corrupt += 1
        logging.getLogger(__name__).warning(
            "quarantined corrupt cache entry %s (%s: %s)%s",
            path.name, type(exc).__name__, exc,
            f" -> {quarantined.name}" if quarantined else "")

    def _save_to_disk(self, key: Tuple[Hashable, ...], value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-temp-then-replace keeps loads from ever observing a
        # partially written entry; the pid suffix keeps concurrent
        # writers of the same key from clobbering each other's temp.
        # The temp lives inside the shard so the rename never crosses
        # a directory (atomicity holds even on multi-device stores).
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        with self._lock:
            self.stats.disk_writes += 1
        if self.disk_capacity is not None:
            self._evict_shard_overflow(path.parent, keep=path.name)

    def _evict_shard_overflow(self, shard_dir: Path, keep: str) -> None:
        """Trim one shard to its share of ``disk_capacity``.

        The per-shard budget is ``ceil(disk_capacity / NUM_SHARDS)`` so
        a writer only ever scans the shard it just published to.
        Eviction is oldest-mtime-first under the shard lock; the entry
        just published (``keep``) survives even when its mtime ties the
        oldest, so a fresh write is never self-evicted.
        """
        budget = max(1, -(-self.disk_capacity // NUM_SHARDS))
        with self._shard_lock(shard_dir):
            try:
                entries = [p for p in shard_dir.iterdir()
                           if p.suffix == ".pkl"]
            except OSError:
                return
            overflow = len(entries) - budget
            if overflow <= 0:
                return
            def age(p: Path) -> Tuple[int, float]:
                try:
                    return (1 if p.name == keep else 0, p.stat().st_mtime)
                except OSError:
                    return (1, float("inf"))  # vanished: treat as newest
            evicted = 0
            for victim in sorted(entries, key=age)[:overflow]:
                try:
                    victim.unlink()
                except FileNotFoundError:
                    continue
                except OSError:
                    continue
                evicted += 1
            if evicted:
                with self._lock:
                    self.stats.disk_evictions += evicted

    def disk_occupancy(self) -> Optional[DiskOccupancy]:
        """Scan the persistent store's footprint (``None`` if disabled).

        A point-in-time snapshot: concurrent writers may add or evict
        entries mid-scan, which only skews the counts, never errors.
        """
        if self.persist_dir is None:
            return None
        entries = total_bytes = shards = legacy = 0
        try:
            children = list(self.persist_dir.iterdir())
        except OSError:
            children = []
        for child in children:
            if child.is_dir() and len(child.name) == SHARD_WIDTH:
                shards += 1
                try:
                    grandchildren = list(child.iterdir())
                except OSError:
                    continue
                for entry in grandchildren:
                    if entry.suffix != ".pkl":
                        continue
                    entries += 1
                    try:
                        total_bytes += entry.stat().st_size
                    except OSError:
                        pass
            elif child.suffix == ".pkl":
                legacy += 1
                entries += 1
                try:
                    total_bytes += child.stat().st_size
                except OSError:
                    pass
        return DiskOccupancy(entries=entries, total_bytes=total_bytes,
                             shards=shards, legacy_entries=legacy)


# ----------------------------------------------------------------------
# The process-wide shared report cache.
#
# One cache instance is shared by every simulator / evaluator in the
# process so identical designs are simulated once across all pipeline
# runs.  ``configure_shared_cache`` swaps it (e.g. to enable
# persistence or shrink capacity in tests).

_shared_cache = EvalCache()
_shared_lock = threading.Lock()


def shared_report_cache() -> EvalCache:
    """The process-wide simulation report cache."""
    return _shared_cache


def configure_shared_cache(capacity: int = DEFAULT_CAPACITY,
                           persist_dir: Optional[os.PathLike] = None,
                           disk_capacity: Optional[int] = None
                           ) -> EvalCache:
    """Replace the shared cache (new capacity and/or persistence dir)."""
    global _shared_cache
    with _shared_lock:
        _shared_cache = EvalCache(capacity=capacity, persist_dir=persist_dir,
                                  disk_capacity=disk_capacity)
        return _shared_cache


def reset_shared_cache() -> None:
    """Drop every entry of the shared cache (used by tests/benchmarks).

    Takes the configuration lock so a clear racing a concurrent
    :func:`configure_shared_cache` swap always clears the *current*
    instance instead of one already being replaced.
    """
    with _shared_lock:
        _shared_cache.clear()
