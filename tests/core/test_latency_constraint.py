"""Tests for the real-time latency constraint in the task spec."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.phase2 import CandidateDesign
from repro.core.spec import TaskSpec, assignment_to_design
from repro.core.strategies import filter_by_success, select_low_power
from repro.errors import ConfigError
from repro.soc.dssoc import DssocEvaluator
from repro.uav.platforms import NANO_ZHANG


def make_candidate(pe=16, success=0.8):
    design = assignment_to_design({
        "num_layers": 7, "num_filters": 48, "pe_rows": pe, "pe_cols": pe,
        "ifmap_sram_kb": 64, "filter_sram_kb": 64, "ofmap_sram_kb": 64,
    })
    return CandidateDesign(evaluation=DssocEvaluator().evaluate(design),
                           success_rate=success)


@pytest.fixture(scope="module")
def candidates():
    return [make_candidate(8), make_candidate(32), make_candidate(128)]


class TestLatencyConstraint:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                     max_latency_s=0.0)

    def test_none_disables_filter(self, candidates):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        assert len(filter_by_success(candidates, task)) == 3

    def test_bound_drops_slow_designs(self, candidates):
        slowest = max(c.evaluation.latency_seconds for c in candidates)
        fastest = min(c.evaluation.latency_seconds for c in candidates)
        bound = (slowest + fastest) / 2
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                        max_latency_s=bound)
        pool = filter_by_success(candidates, task)
        assert 0 < len(pool) < 3
        assert all(c.evaluation.latency_seconds <= bound for c in pool)

    def test_unsatisfiable_bound_raises(self, candidates):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                        max_latency_s=1e-9)
        with pytest.raises(ConfigError):
            filter_by_success(candidates, task)

    def test_strategies_respect_bound(self, candidates):
        # With a tight real-time bound, LP can no longer pick the
        # slow 8x8 design.
        latency_8 = [c for c in candidates
                     if c.design.accelerator.pe_rows == 8][0]\
            .evaluation.latency_seconds
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                        max_latency_s=latency_8 * 0.5)
        choice = select_low_power(candidates, task)
        assert choice.design.accelerator.pe_rows != 8
