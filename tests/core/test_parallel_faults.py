"""Fault-injection tests for the parallel runtime's serial fallback.

Every test drives :func:`repro.core.parallel.parallel_map` through the
deterministic injector in :mod:`repro.testing.faults` and asserts the
recovery invariant: results are bit-identical to the serial map, in
input order, no matter which worker died when.  Each fallback is one
logged, counted rerun of the tasks the pool returned no result for.
"""

import logging
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.parallel import parallel_map
from repro.errors import ConfigError
from repro.perf import span
from repro.testing import faults

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


def _square_fails_in_worker_on_7(x):
    # An environmental failure: task 7 fails in a pool worker only.
    if x == 7 and multiprocessing.parent_process() is not None:
        raise OSError("worker-only failure")
    return x * x


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall_injector()
    yield
    faults.uninstall_injector()


def pool_counts(node):
    """``(fallbacks, rerun tasks)`` counted in a span's subtree."""
    return node.total("pool.fallbacks"), node.total("pool.rerun_tasks")


def assert_one_fallback(node):
    fallbacks, rerun_tasks = pool_counts(node)
    assert fallbacks == 1
    assert 1 <= rerun_tasks <= len(ITEMS)


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("crash_index", [0, 11, 22])
    def test_crash_reruns_serially(self, crash_index):
        with span("run") as run, \
                faults.active_faults(f"crash@pool-task:{crash_index}"):
            result = parallel_map(_square, ITEMS, workers=2)
        assert result == EXPECTED
        assert_one_fallback(run)

    def test_two_crashes_in_one_batch(self):
        with span("run") as run, \
                faults.active_faults("crash@pool-task:2,crash@pool-task:17"):
            result = parallel_map(_square, ITEMS, workers=2)
        assert result == EXPECTED
        assert_one_fallback(run)

    def test_pool_broken_during_submission(self, monkeypatch):
        # A worker that dies while tasks are still being submitted
        # makes ``submit`` raise: the unsubmitted tasks rerun serially.
        submit = ProcessPoolExecutor.submit
        submitted = []

        def submit_five(executor, *args):
            if len(submitted) == 5:
                raise BrokenProcessPool("injected")
            submitted.append(args)
            return submit(executor, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_five)
        with span("run") as run:
            assert parallel_map(_square, ITEMS, workers=2) == EXPECTED
        assert pool_counts(run) == (1, len(ITEMS) - 5)

    def test_fallback_is_logged_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            with faults.active_faults("crash@pool-task:3"):
                parallel_map(_square, ITEMS, workers=2)
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1
        assert "rerunning them serially" in messages[0]


class TestTransientFaults:
    def test_transient_exception_is_retried(self):
        # Task 7 raises in a pool worker only, so its serial rerun in
        # the parent succeeds; every other result the pool returned is
        # kept.
        with span("run") as run:
            result = parallel_map(_square_fails_in_worker_on_7, ITEMS,
                                  workers=2)
        assert result == EXPECTED
        assert pool_counts(run) == (1, 1)

    def test_persistent_application_error_surfaces_from_fallback(self):
        # A real bug fails in the pool and again in the serial rerun,
        # where it raises as its own type -- not BrokenProcessPool.
        with span("run") as run, \
                pytest.raises(ValueError, match="application error on 0$"):
            parallel_map(_boom, ITEMS, workers=2)
        assert pool_counts(run) == (1, len(ITEMS))


class TestUnpicklablePayloads:
    def test_unpicklable_fn_goes_straight_to_serial(self):
        offset = 10
        with span("run") as run:
            result = parallel_map(lambda x: x + offset, ITEMS, workers=2)
        assert result == [x + offset for x in ITEMS]
        assert pool_counts(run) == (1, len(ITEMS))


class TestUnpicklableNarrowing:
    """A worker-raised TypeError/AttributeError must surface as itself.

    These are the shapes CPython's reducer raises for an unpicklable
    payload.  The fallback does not tell the two apart: it reruns every
    task without a result, so a raised one surfaces from the rerun.
    """

    @pytest.mark.parametrize("fn,exc", [(_type_boom, TypeError),
                                        (_attr_boom, AttributeError)],
                             ids=["TypeError", "AttributeError"])
    def test_task_error_is_retried(self, fn, exc):
        with span("run") as run, \
                pytest.raises(exc, match="worker-raised .* on 0$"):
            parallel_map(fn, ITEMS, workers=2)
        assert pool_counts(run) == (1, len(ITEMS))


class TestEnvHook:
    def test_repro_faults_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash@pool-task:3")
        with span("run") as run:
            result = parallel_map(_square, ITEMS, workers=2)
        assert result == EXPECTED
        assert_one_fallback(run)

    def test_installed_injector_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash@pool-task:0")
        with faults.active_faults(faults.FaultInjector()):
            assert faults.current_injector().rules == ()

    def test_env_spec_parse_errors_are_config_errors(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "garbage")
        with pytest.raises(ConfigError):
            faults.current_injector()


class TestFaultPrimitives:
    def test_parse_faults_round_trip(self):
        injector = faults.parse_faults(
            "crash@pool-task:3, kill@checkpoint-write:4")
        assert injector.rules == (
            faults.FaultRule("crash", "pool-task", 3),
            faults.FaultRule("kill", "checkpoint-write", 4),
        )

    @pytest.mark.parametrize("spec", [
        "crash@pool-task:5x2",
        "crash@pool-task:5x*",
        "transient@pool-task:5",
        "pickle@chunk-pickle:1",
        "crash@chunk-pickle:1",
    ])
    def test_retired_suffixes_kinds_and_sites_rejected(self, spec):
        with pytest.raises(ConfigError):
            faults.parse_faults(spec)

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

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            faults.FaultRule("kill", "checkpoint-write", -1)

    def test_rule_prints_as_its_spec(self):
        rule, = faults.parse_faults(" kill@checkpoint-write:35 ").rules
        assert str(rule) == "kill@checkpoint-write:35"
        assert faults.parse_faults(str(rule)).rules == (rule,)

    def test_injector_is_truthy_only_with_rules(self):
        assert not faults.FaultInjector()
        assert not faults.parse_faults(" , ")
        assert faults.parse_faults("crash@pool-task:0")


class TestUnreachedRules:
    """``unreached`` names the rules a run's counted events never hit."""

    def test_rules_past_the_last_event_are_unreached(self):
        injector = faults.parse_faults(
            "kill@checkpoint-write:7, kill@checkpoint-write:3")
        for _ in range(3):
            injector.on_checkpoint_write()  # writes 0, 1 and 2
        assert injector.unreached(faults.SITE_CHECKPOINT_WRITE) == (
            3, (faults.FaultRule("kill", "checkpoint-write", 7),
                faults.FaultRule("kill", "checkpoint-write", 3)))

    def test_a_fired_rule_is_not_unreached(self):
        injector = faults.parse_faults(
            "kill@checkpoint-write:1, kill@checkpoint-write:5")
        injector.on_checkpoint_write()
        with pytest.raises(faults.SimulatedKill):
            injector.on_checkpoint_write()
        assert injector.unreached(faults.SITE_CHECKPOINT_WRITE) == (
            2, (faults.FaultRule("kill", "checkpoint-write", 5),))

    def test_other_sites_rules_are_left_out(self):
        injector = faults.parse_faults(
            "crash@pool-task:4, kill@checkpoint-write:0")
        assert injector.unreached(faults.SITE_CHECKPOINT_WRITE) == (
            0, (faults.FaultRule("kill", "checkpoint-write", 0),))


class TestPoolStatsAccounting:
    """The fallback counts land in the span open around the call."""

    def test_snapshot_and_since_are_deltas(self):
        # A span holds only the fallbacks made while it was open.
        with span("earlier") as earlier:
            parallel_map(lambda x: x, [1, 2], workers=2)
        with span("later") as later:
            parallel_map(lambda x: x, [1, 2, 3], workers=2)
        assert pool_counts(earlier) == (1, 2)
        assert pool_counts(later) == (1, 3)

    def test_merge_accumulates(self):
        # Fallbacks in two phases sum in their run's total.
        with span("run") as run:
            with span("a"):
                parallel_map(lambda x: x, [1, 2, 3, 4], workers=2)
            with span("b"):
                parallel_map(lambda x: x, [1, 2, 3], workers=2)
        assert pool_counts(run) == (2, 7)
