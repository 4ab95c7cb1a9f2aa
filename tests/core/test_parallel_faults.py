"""Fault-injection tests for the retrying parallel runtime.

Every test drives :func:`repro.core.parallel.parallel_map` through the
deterministic injector in :mod:`repro.testing.faults` and asserts the
recovery invariant: results are bit-identical to the serial map, in
input order, no matter which worker died when.
"""

import pickle

import pytest

from repro.core.parallel import (
    DEFAULT_CHUNKSIZE,
    PoolStats,
    RetryPolicy,
    parallel_map,
    pool_stats,
)
from repro.errors import ConfigError
from repro.testing import faults

#: A zero-sleep retry schedule so fault tests never wait on backoff.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)

ITEMS = list(range(23))
EXPECTED = [x * x for x in ITEMS]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"application error on {x}")


def _type_boom(x):
    raise TypeError(f"worker-raised TypeError on {x}")


def _attr_boom(x):
    raise AttributeError(f"worker-raised AttributeError on {x}")


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


def stats_delta(before):
    return pool_stats().since(before)


class TestWorkerCrashRecovery:
    # First, middle and last chunk of the 23-item / 4-per-chunk layout.
    @pytest.mark.parametrize("crash_index", [0, 11, 22])
    def test_crash_is_retried_not_serialised(self, crash_index):
        before = pool_stats().snapshot()
        with faults.active_faults(f"crash@pool-task:{crash_index}"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        delta = stats_delta(before)
        assert delta.chunk_failures >= 1
        assert delta.chunk_retries >= 1
        assert delta.pool_respawns >= 1
        # The crash must not degrade the whole batch to serial.
        assert delta.poisoned_chunks == 0
        assert delta.serial_fallback_chunks == 0

    def test_two_crashes_in_one_batch(self):
        before = pool_stats().snapshot()
        with faults.active_faults("crash@pool-task:2,crash@pool-task:17"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        assert stats_delta(before).pool_respawns >= 1

    def test_repeated_crash_exhausts_retries_and_runs_serially(self):
        # x* fires on every attempt: the chunk is poisoned after
        # max_attempts and then succeeds in the parent's serial
        # fallback (where the injector is not consulted).  A pool
        # break also fails whichever innocent chunk was in flight, so
        # collateral poisoning of a second chunk is tolerated -- but
        # the batch as a whole must never degrade to serial.
        num_chunks = -(-len(ITEMS) // 4)
        before = pool_stats().snapshot()
        with faults.active_faults("crash@pool-task:5x*"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        delta = stats_delta(before)
        assert delta.poisoned_chunks >= 1
        assert delta.serial_fallback_chunks == delta.poisoned_chunks
        assert delta.poisoned_chunks < num_chunks
        assert delta.chunk_failures >= FAST_RETRY.max_attempts


class TestTransientFaults:
    def test_transient_exception_is_retried(self):
        before = pool_stats().snapshot()
        with faults.active_faults("transient@pool-task:7"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        delta = stats_delta(before)
        assert delta.chunk_retries >= 1
        # A raised exception does not kill the pool.
        assert delta.pool_respawns == 0

    def test_persistent_application_error_surfaces_from_fallback(self):
        # A real bug fails on every attempt, gets poisoned, and the
        # serial fallback re-raises the true exception -- not
        # BrokenProcessPool.
        with pytest.raises(ValueError, match="application error"):
            parallel_map(_boom, ITEMS, workers=2, chunksize=4,
                         retry=FAST_RETRY)


class TestUnpicklablePayloads:
    def test_unpicklable_fn_goes_straight_to_serial(self):
        offset = 10
        before = pool_stats().snapshot()
        result = parallel_map(lambda x: x + offset, ITEMS, workers=2,
                              chunksize=4, retry=FAST_RETRY)
        assert result == [x + offset for x in ITEMS]
        delta = stats_delta(before)
        assert delta.unpicklable_chunks >= 1
        # Pickling is deterministic: no retries were attempted.
        assert delta.chunk_retries == 0
        assert delta.pool_respawns == 0

    def test_injected_pickle_fault_degrades_one_chunk_only(self):
        before = pool_stats().snapshot()
        with faults.active_faults("pickle@chunk-pickle:1"):
            result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                                  retry=FAST_RETRY)
        assert result == EXPECTED
        delta = stats_delta(before)
        assert delta.unpicklable_chunks == 1
        assert delta.serial_fallback_chunks == 1


class TestUnpicklableNarrowing:
    """A worker-raised TypeError/AttributeError must surface as itself.

    Before the probe-pickle narrowing, any TypeError escaping a chunk
    was misclassified as an unpicklable payload and silently rerouted
    to the serial fallback -- which then raised the error without the
    retry machinery ever seeing it, and miscounted the failure mode.
    """

    @pytest.mark.parametrize("fn,exc", [(_type_boom, TypeError),
                                        (_attr_boom, AttributeError)],
                             ids=["TypeError", "AttributeError"])
    def test_task_error_is_retried(self, fn, exc):
        before = pool_stats().snapshot()
        with pytest.raises(exc, match="worker-raised"):
            parallel_map(fn, ITEMS, workers=2, chunksize=4,
                         retry=FAST_RETRY)
        delta = stats_delta(before)
        # Classified as an application error: retried then poisoned,
        # never counted against the unpicklable path.
        assert delta.unpicklable_chunks == 0
        assert delta.chunk_failures >= 1
        assert delta.chunk_retries >= 1
        assert delta.poisoned_chunks >= 1


class TestEnvHook:
    def test_repro_faults_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash@pool-task:3")
        before = pool_stats().snapshot()
        result = parallel_map(_square, ITEMS, workers=2, chunksize=4,
                              retry=FAST_RETRY)
        assert result == EXPECTED
        assert stats_delta(before).pool_respawns >= 1

    def test_installed_injector_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash@pool-task:0x*")
        with faults.active_faults(faults.FaultInjector()):
            assert faults.current_injector().rules == ()

    def test_env_spec_parse_errors_are_config_errors(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "garbage")
        with pytest.raises(ConfigError):
            faults.current_injector()


class TestFaultPrimitives:
    def test_parse_faults_round_trip(self):
        injector = faults.parse_faults(
            "crash@pool-task:3, transient@pool-task:5x2,"
            "kill@checkpoint-write:4x*")
        assert injector.rules == (
            faults.FaultRule("crash", "pool-task", 3, attempts=1),
            faults.FaultRule("transient", "pool-task", 5, attempts=2),
            faults.FaultRule("kill", "checkpoint-write", 4, attempts=None),
        )

    def test_attempt_bound_controls_refiring(self):
        rule = faults.FaultRule("crash", "pool-task", 3, attempts=2)
        assert rule.matches("pool-task", 3, 0)
        assert rule.matches("pool-task", 3, 1)
        assert not rule.matches("pool-task", 3, 2)
        persistent = faults.FaultRule("crash", "pool-task", 3, attempts=None)
        assert persistent.matches("pool-task", 3, 99)

    def test_unknown_kind_and_site_rejected(self):
        with pytest.raises(ConfigError):
            faults.FaultRule("explode", "pool-task", 0)
        with pytest.raises(ConfigError):
            faults.FaultRule("crash", "moon", 0)

    def test_injector_pickles_rules_but_not_counters(self):
        injector = faults.parse_faults("kill@checkpoint-write:1")
        injector.on_checkpoint_write()  # write 0: no rule, counter -> 1
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.rules == injector.rules
        clone.on_checkpoint_write()  # counter travelled as 0, not 1
        with pytest.raises(faults.SimulatedKill):
            clone.on_checkpoint_write()  # write 1 fires

    def test_simulated_kill_is_a_base_exception(self):
        assert not issubclass(faults.SimulatedKill, Exception)

    def test_transient_fault_raises_in_process(self):
        injector = faults.FaultInjector(
            [faults.FaultRule("transient", "pool-task", 2)])
        injector.on_pool_task(1, 0)  # no fault
        with pytest.raises(faults.TransientFault):
            injector.on_pool_task(2, 0)


class TestPoolStatsAccounting:
    def test_snapshot_and_since_are_deltas(self):
        stats = PoolStats(chunk_failures=3, chunk_retries=2)
        base = stats.snapshot()
        stats.chunk_failures += 4
        stats.pool_respawns += 1
        delta = stats.since(base)
        assert delta.chunk_failures == 4
        assert delta.pool_respawns == 1
        assert delta.chunk_retries == 0

    def test_merge_accumulates(self):
        total = PoolStats()
        total.merge(PoolStats(chunk_failures=2, poisoned_chunks=1))
        total.merge(PoolStats(chunk_failures=1, unpicklable_chunks=3))
        assert total.chunk_failures == 3
        assert total.poisoned_chunks == 1
        assert total.unpicklable_chunks == 3
        assert total.total_faults == 6

    def test_retry_policy_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1,
                             backoff_multiplier=2.0, max_backoff_s=0.3)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(5) == pytest.approx(0.3)
        assert RetryPolicy(backoff_s=0.0).delay_s(3) == 0.0

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_default_chunksize_unchanged(self):
        assert DEFAULT_CHUNKSIZE == 8
