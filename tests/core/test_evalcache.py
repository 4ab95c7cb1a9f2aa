"""Unit tests for the content-addressed evaluation cache."""

import threading

import pytest

from repro.core.evalcache import (
    CacheStats,
    EvalCache,
    configure_shared_cache,
    estimate_key,
    reset_shared_cache,
    shared_report_cache,
    workload_fingerprint,
)
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import lower_network
from repro.scalesim.config import AcceleratorConfig


def make_config(rows=16, cols=16, sram=64, **kwargs):
    return AcceleratorConfig(pe_rows=rows, pe_cols=cols, ifmap_sram_kb=sram,
                             filter_sram_kb=sram, ofmap_sram_kb=sram,
                             **kwargs)


def make_workload(layers=3, filters=32):
    return lower_network(build_policy_network(
        PolicyHyperparams(layers, filters)))


class TestDesignKey:
    """Content addressing of a (workload, accelerator) design, as
    :func:`estimate_key` fingerprints it."""

    def test_stable_across_lowerings(self):
        network = build_policy_network(PolicyHyperparams(4, 48))
        config = make_config()
        key_a = estimate_key(lower_network(network), config)
        key_b = estimate_key(lower_network(network), config)
        assert key_a == key_b

    def test_name_excluded_from_key(self):
        import dataclasses
        workload = make_workload()
        renamed = dataclasses.replace(workload, name="something-else")
        config = make_config()
        assert estimate_key(workload, config) == estimate_key(renamed, config)

    def test_different_content_different_key(self):
        config = make_config()
        assert estimate_key(make_workload(2, 32), config) != \
            estimate_key(make_workload(10, 64), config)

    def test_different_config_different_key(self):
        workload = make_workload()
        assert estimate_key(workload, make_config(rows=16)) != \
            estimate_key(workload, make_config(rows=32))
        assert estimate_key(workload, make_config(sram=64)) != \
            estimate_key(workload, make_config(sram=128))

    def test_fingerprint_covers_every_layer(self):
        shallow = workload_fingerprint(make_workload(2, 32))
        deep = workload_fingerprint(make_workload(10, 32))
        assert len(deep) > len(shallow)

    def test_key_is_hashable(self):
        key = estimate_key(make_workload(), make_config())
        assert hash(key) == hash(key)


class TestEvalCache:
    def test_get_put_roundtrip(self):
        cache = EvalCache(capacity=4)
        cache.put(("k",), "value")
        assert cache.get(("k",)) == "value"
        assert ("k",) in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = EvalCache(capacity=4)
        assert cache.get(("missing",)) is None

    def test_stats_count_hits_and_misses(self):
        cache = EvalCache(capacity=4)
        cache.get(("a",))
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.get(("a",))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_drops_oldest(self):
        cache = EvalCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))        # refresh "a"; "b" is now oldest
        cache.put(("c",), 3)
        assert ("a",) in cache
        assert ("b",) not in cache
        assert cache.stats.evictions == 1

    def test_clear_resets_entries_and_stats(self):
        cache = EvalCache(capacity=4)
        cache.put(("a",), 1)
        cache.get(("a",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigError):
            EvalCache(capacity=0)


class TestCacheStats:
    def test_hit_rate_zero_when_unused(self):
        assert CacheStats().hit_rate == 0.0


class TestSharedCache:
    def test_shared_cache_is_process_wide(self):
        assert shared_report_cache() is shared_report_cache()

    def test_configure_replaces_shared_cache(self):
        original = shared_report_cache()
        try:
            replaced = configure_shared_cache(capacity=8)
            assert shared_report_cache() is replaced
            assert replaced.capacity == 8
        finally:
            configure_shared_cache(capacity=original.capacity)

    def test_reset_drops_entries(self):
        cache = shared_report_cache()
        cache.put(("test-entry",), 1)
        reset_shared_cache()
        assert ("test-entry",) not in cache

    def test_reset_waits_for_configuration_lock(self):
        """Clearing must serialise with a concurrent configure swap so
        it never clears an instance that is already being replaced."""
        from repro.core import evalcache

        evalcache._shared_lock.acquire()
        done = threading.Event()
        thread = threading.Thread(
            target=lambda: (reset_shared_cache(), done.set()))
        thread.start()
        try:
            assert not done.wait(0.1)
        finally:
            evalcache._shared_lock.release()
        assert done.wait(2.0)
        thread.join()
