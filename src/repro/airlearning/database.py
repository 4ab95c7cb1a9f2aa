"""The Air Learning database (Section III-B).

Phase 1 stores each validated policy -- an algorithm identifier, its
hyper-parameters and its validated success rate -- in a database that
Phase 2's Bayesian optimiser queries instead of retraining.  The
database is an in-memory map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.airlearning.scenarios import Scenario
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams


@dataclass(frozen=True)
class PolicyRecord:
    """One database entry: a validated policy and its success rate."""

    algorithm_id: str
    num_layers: int
    num_filters: int
    scenario: str
    success_rate: float

    @property
    def hyperparams(self) -> PolicyHyperparams:
        """The template hyper-parameters for this record."""
        return PolicyHyperparams(num_layers=self.num_layers,
                                 num_filters=self.num_filters)


class AirLearningDatabase:
    """Keyed store of validated policies per scenario."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], PolicyRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PolicyRecord]:
        return iter(self._records.values())

    @staticmethod
    def _key(hyperparams: PolicyHyperparams,
             scenario: Scenario) -> Tuple[str, str]:
        return (hyperparams.identifier, scenario.value)

    def add(self, hyperparams: PolicyHyperparams, scenario: Scenario,
            success_rate: float) -> PolicyRecord:
        """Insert (or overwrite) a validated policy record."""
        if not 0.0 <= success_rate <= 1.0:
            raise ConfigError("success_rate must be in [0, 1]")
        record = PolicyRecord(
            algorithm_id=hyperparams.identifier,
            num_layers=hyperparams.num_layers,
            num_filters=hyperparams.num_filters,
            scenario=scenario.value,
            success_rate=success_rate,
        )
        self._records[self._key(hyperparams, scenario)] = record
        return record

    def get(self, hyperparams: PolicyHyperparams,
            scenario: Scenario) -> Optional[PolicyRecord]:
        """Fetch a record, or None when absent."""
        return self._records.get(self._key(hyperparams, scenario))

    def success_rate(self, hyperparams: PolicyHyperparams,
                     scenario: Scenario) -> float:
        """Success rate for a policy; raises if it was never validated."""
        record = self.get(hyperparams, scenario)
        if record is None:
            raise ConfigError(
                f"no validated policy {hyperparams.identifier} for "
                f"scenario {scenario.value!r}")
        return record.success_rate

    def records_for(self, scenario: Scenario) -> List[PolicyRecord]:
        """All records of one scenario, best success first."""
        records = [r for r in self._records.values()
                   if r.scenario == scenario.value]
        return sorted(records, key=lambda r: -r.success_rate)

    def best(self, scenario: Scenario) -> PolicyRecord:
        """Highest-success record for a scenario."""
        records = self.records_for(scenario)
        if not records:
            raise ConfigError(f"database has no records for {scenario.value!r}")
        return records[0]
