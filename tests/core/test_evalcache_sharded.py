"""The sharded, concurrent-safe, cross-run disk store of EvalCache.

Covers the shard layout itself, lazy migration of pre-shard flat
entries, per-shard capacity eviction, the occupancy scan, and the
multi-process invariant: two processes hammering the same store never
observe a torn entry and never lose a published value.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.core.evalcache import (
    NUM_SHARDS,
    SHARD_WIDTH,
    CacheStats,
    DiskOccupancy,
    EvalCache,
    key_digest,
)
from repro.errors import ConfigError


class TestShardLayout:
    def test_entries_land_in_digest_prefix_shards(self, tmp_path):
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        for i in range(8):
            cache.put(("k", i), i)
        for i in range(8):
            digest = key_digest(("k", i))
            path = tmp_path / digest[:SHARD_WIDTH] / f"{digest}.pkl"
            assert path.exists()
            assert cache._disk_path(("k", i)) == path

    def test_disk_writes_counted(self, tmp_path):
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.stats.disk_writes == 2

    def test_no_temp_files_left_in_shards(self, tmp_path):
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        cache.put(("k",), "value")
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_nonpositive_disk_capacity_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="disk capacity"):
            EvalCache(persist_dir=tmp_path, disk_capacity=0)


class TestLegacyMigration:
    def _write_legacy(self, root, key, value):
        digest = key_digest(key)
        with (root / f"{digest}.pkl").open("wb") as handle:
            pickle.dump(value, handle)

    def test_flat_entry_is_readable_and_migrated(self, tmp_path):
        self._write_legacy(tmp_path, ("old",), {"cycles": 7})
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        assert cache.get(("old",)) == {"cycles": 7}
        assert cache.stats.migrated == 1
        # Moved, not copied: the flat file is gone, the shard has it.
        digest = key_digest(("old",))
        assert not (tmp_path / f"{digest}.pkl").exists()
        assert (tmp_path / digest[:SHARD_WIDTH] / f"{digest}.pkl").exists()

    def test_mixed_layout_store(self, tmp_path):
        # Half the entries in the legacy flat layout, half sharded.
        legacy_keys = [("legacy", i) for i in range(4)]
        sharded_keys = [("sharded", i) for i in range(4)]
        for key in legacy_keys:
            self._write_legacy(tmp_path, key, key[1])
        writer = EvalCache(capacity=8, persist_dir=tmp_path)
        for key in sharded_keys:
            writer.put(key, key[1] * 10)
        reader = EvalCache(capacity=8, persist_dir=tmp_path)
        for key in legacy_keys:
            assert reader.get(key) == key[1]
        for key in sharded_keys:
            assert reader.get(key) == key[1] * 10
        assert reader.stats.migrated == 4
        assert reader.stats.disk_hits == 8

    def test_migrated_entry_served_from_shard_next_time(self, tmp_path):
        self._write_legacy(tmp_path, ("old",), "v")
        EvalCache(capacity=8, persist_dir=tmp_path).get(("old",))
        fresh = EvalCache(capacity=8, persist_dir=tmp_path)
        assert fresh.get(("old",)) == "v"
        assert fresh.stats.migrated == 0

    def test_entry_migrated_by_another_process_mid_lookup_is_a_hit(
            self, tmp_path, monkeypatch):
        # Another process moves the legacy entry into its shard after
        # this lookup found the shard empty but before it probes the
        # legacy path; the entry exists throughout, so it must be a hit.
        self._write_legacy(tmp_path, ("old",), "v")
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        shard_path = cache._disk_path(("old",))
        legacy_disk_path = EvalCache._legacy_disk_path

        def migrated_meanwhile(self, key):
            legacy = legacy_disk_path(self, key)
            shard_path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, shard_path)
            return legacy

        monkeypatch.setattr(EvalCache, "_legacy_disk_path",
                            migrated_meanwhile)
        assert cache.get(("old",)) == "v"
        assert cache.stats.disk_hits == 1
        assert cache.stats.migrated == 0

    def test_corrupt_entry_quarantined_inside_shard(self, tmp_path):
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        cache.put(("k",), "good")
        path = cache._disk_path(("k",))
        path.write_bytes(b"not a pickle")
        fresh = EvalCache(capacity=8, persist_dir=tmp_path)
        assert fresh.get(("k",)) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert fresh.stats.corrupt == 1


class TestDiskEviction:
    def test_shard_overflow_evicts_oldest(self, tmp_path):
        # disk_capacity == NUM_SHARDS gives every shard a budget of
        # exactly one entry, so two same-shard keys must evict down to
        # the newer one.
        cache = EvalCache(capacity=64, persist_dir=tmp_path,
                          disk_capacity=NUM_SHARDS)
        by_shard = {}
        i = 0
        while True:
            key = ("k", i)
            shard = key_digest(key)[:SHARD_WIDTH]
            if shard in by_shard:
                first, second = by_shard[shard], key
                break
            by_shard[shard] = key
            i += 1
        cache.put(first, "older")
        # Distinct mtimes so oldest-first is deterministic.
        import os
        import time
        old_path = cache._disk_path(first)
        past = time.time() - 60
        os.utime(old_path, (past, past))
        cache.put(second, "newer")
        assert not old_path.exists()
        assert cache._disk_path(second).exists()
        assert cache.stats.disk_evictions == 1

    def test_fresh_write_never_self_evicts(self, tmp_path):
        cache = EvalCache(capacity=64, persist_dir=tmp_path,
                          disk_capacity=NUM_SHARDS)
        cache.put(("solo",), "v")
        assert cache._disk_path(("solo",)).exists()
        assert cache.stats.disk_evictions == 0

    def test_unbounded_store_never_evicts(self, tmp_path):
        cache = EvalCache(capacity=64, persist_dir=tmp_path)
        for i in range(32):
            cache.put(("k", i), i)
        assert cache.stats.disk_evictions == 0
        occupancy = cache.disk_occupancy()
        assert occupancy.entries == 32


class TestDiskOccupancy:
    def test_none_without_persistence(self):
        assert EvalCache(capacity=4).disk_occupancy() is None

    def test_counts_sharded_and_legacy(self, tmp_path):
        digest = key_digest(("legacy",))
        with (tmp_path / f"{digest}.pkl").open("wb") as handle:
            pickle.dump("v", handle)
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        occupancy = cache.disk_occupancy()
        assert occupancy.entries == 3
        assert occupancy.legacy_entries == 1
        assert occupancy.shards >= 1
        assert occupancy.total_bytes > 0
        assert "awaiting shard migration" in occupancy.describe()

    def test_describe_without_legacy(self, tmp_path):
        cache = EvalCache(capacity=8, persist_dir=tmp_path)
        cache.put(("a",), 1)
        text = cache.disk_occupancy().describe()
        assert "1 entries" in text
        assert "awaiting" not in text


class TestCacheStatsGenerics:
    def test_snapshot_since_merge_cover_all_fields(self):
        stats = CacheStats(hits=2, misses=1, disk_writes=3, migrated=1,
                           disk_evictions=2)
        snap = stats.snapshot()
        assert vars(snap) == vars(stats)
        stats.disk_writes += 4
        delta = stats.since(snap)
        assert delta.disk_writes == 4
        assert delta.hits == 0
        total = CacheStats()
        total.merge(snap)
        total.merge(delta)
        assert vars(total) == vars(stats)


def _hammer(persist_dir, worker_id, rounds, out):
    """Subprocess body: interleaved writes and reads on shared keys."""
    cache = EvalCache(capacity=256, persist_dir=persist_dir)
    torn = 0
    for round_index in range(rounds):
        for key_index in range(8):
            key = ("shared", key_index)
            # Every writer publishes the same value for a key, so any
            # successful read must return exactly that value.
            cache.put(key, {"key": key_index, "payload": "x" * 512})
            value = EvalCache(capacity=1, persist_dir=persist_dir).get(key)
            if value is not None and value.get("key") != key_index:
                torn += 1
    out.put((worker_id, torn, cache.stats.corrupt))


class TestMultiProcessConcurrency:
    def test_two_processes_hammer_same_store(self, tmp_path):
        out = multiprocessing.Queue()
        procs = [multiprocessing.Process(target=_hammer,
                                         args=(tmp_path, i, 20, out))
                 for i in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        reports = [out.get(timeout=10) for _ in procs]
        for _, torn, corrupt in reports:
            assert torn == 0
            assert corrupt == 0
        # Every key is readable afterwards and no temp litter remains.
        reader = EvalCache(capacity=16, persist_dir=tmp_path)
        for key_index in range(8):
            value = reader.get(("shared", key_index))
            assert value == {"key": key_index, "payload": "x" * 512}
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.corrupt")) == []

    def test_two_processes_migrate_same_legacy_entries(self, tmp_path):
        # Pre-seed a flat-layout store, then have two processes race to
        # read (and so migrate) every entry.
        for key_index in range(8):
            digest = key_digest(("legacy", key_index))
            with (tmp_path / f"{digest}.pkl").open("wb") as handle:
                pickle.dump(key_index, handle)

        out = multiprocessing.Queue()
        procs = [multiprocessing.Process(target=_read_all_entries,
                                         args=(tmp_path, out))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reports = [out.get(timeout=10) for _ in procs]
        for values, _ in reports:
            assert values == list(range(8))
        # Each entry migrated exactly once across both processes.
        assert sum(migrated for _, migrated in reports) == 8
        assert list(tmp_path.glob("*.pkl")) == []


def _read_all_entries(persist_dir, out):
    cache = EvalCache(capacity=16, persist_dir=persist_dir)
    values = [cache.get(("legacy", i)) for i in range(8)]
    out.put((values, cache.stats.migrated))
