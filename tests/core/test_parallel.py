"""Tests for the process-parallel map behind Phase 1 training."""

import pytest

from repro.core.parallel import parallel_map
from repro.core.phase1 import resolve_workers
from repro.errors import ConfigError


def _square(x):
    return x * x


class TestResolveWorkers:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_variable_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ConfigError):
            resolve_workers()

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(0)
        with pytest.raises(ConfigError):
            resolve_workers(-2)


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_path_preserves_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=2) == \
            [x * x for x in items]

    def test_single_item_runs_serially(self):
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 10
        result = parallel_map(lambda x: x + offset, [1, 2, 3], workers=2)
        assert result == [11, 12, 13]
