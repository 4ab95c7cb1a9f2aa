"""Unit tests for the Air Learning database."""

import pytest

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.scenarios import Scenario
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams


@pytest.fixture
def database():
    db = AirLearningDatabase()
    db.add(PolicyHyperparams(5, 32), Scenario.LOW, 0.91)
    db.add(PolicyHyperparams(4, 48), Scenario.LOW, 0.85)
    db.add(PolicyHyperparams(7, 48), Scenario.DENSE, 0.80)
    return db


class TestCrud:
    def test_len(self, database):
        assert len(database) == 3

    def test_get_existing(self, database):
        record = database.get(PolicyHyperparams(5, 32), Scenario.LOW)
        assert record is not None
        assert record.success_rate == 0.91

    def test_get_missing_returns_none(self, database):
        assert database.get(PolicyHyperparams(2, 32), Scenario.LOW) is None

    def test_success_rate_raises_on_missing(self, database):
        with pytest.raises(ConfigError):
            database.success_rate(PolicyHyperparams(2, 32), Scenario.LOW)

    def test_add_overwrites(self, database):
        database.add(PolicyHyperparams(5, 32), Scenario.LOW, 0.7)
        assert len(database) == 3
        assert database.success_rate(PolicyHyperparams(5, 32),
                                     Scenario.LOW) == 0.7

    def test_same_policy_distinct_per_scenario(self, database):
        database.add(PolicyHyperparams(5, 32), Scenario.DENSE, 0.6)
        assert database.success_rate(PolicyHyperparams(5, 32),
                                     Scenario.LOW) == 0.91
        assert database.success_rate(PolicyHyperparams(5, 32),
                                     Scenario.DENSE) == 0.6

    def test_rejects_invalid_success_rate(self, database):
        with pytest.raises(ConfigError):
            database.add(PolicyHyperparams(2, 32), Scenario.LOW, 1.5)

    def test_record_hyperparams_roundtrip(self, database):
        record = database.get(PolicyHyperparams(5, 32), Scenario.LOW)
        assert record.hyperparams == PolicyHyperparams(5, 32)


class TestQueries:
    def test_records_for_sorted_by_success(self, database):
        records = database.records_for(Scenario.LOW)
        rates = [r.success_rate for r in records]
        assert rates == sorted(rates, reverse=True)
        assert len(records) == 2

    def test_best(self, database):
        best = database.best(Scenario.LOW)
        assert best.success_rate == 0.91

    def test_best_raises_on_empty_scenario(self, database):
        with pytest.raises(ConfigError):
            database.best(Scenario.MEDIUM)

    def test_iteration(self, database):
        assert len(list(database)) == 3
