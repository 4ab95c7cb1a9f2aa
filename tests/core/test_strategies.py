"""Unit tests for the HT/LP/HE selection strategies."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.phase2 import CandidateDesign
from repro.core.spec import TaskSpec, assignment_to_design
from repro.core.strategies import (
    TRADITIONAL_STRATEGIES,
    filter_by_success,
    select_high_efficiency,
    select_high_throughput,
    select_low_power,
)
from repro.errors import ConfigError
from repro.soc.dssoc import DssocEvaluator
from repro.uav.platforms import NANO_ZHANG


def make_candidate(pe=16, sram=64, layers=7, filters=48, success=0.8):
    design = assignment_to_design({
        "num_layers": layers, "num_filters": filters, "pe_rows": pe,
        "pe_cols": pe, "ifmap_sram_kb": sram, "filter_sram_kb": sram,
        "ofmap_sram_kb": sram,
    })
    evaluation = DssocEvaluator().evaluate(design)
    return CandidateDesign(evaluation=evaluation, success_rate=success)


@pytest.fixture(scope="module")
def candidates():
    return [
        make_candidate(pe=8, success=0.80),    # slowest, lowest power
        make_candidate(pe=32, success=0.80),
        make_candidate(pe=128, success=0.80),  # fastest, highest power
        make_candidate(pe=64, success=0.50),   # fast but low success
    ]


@pytest.fixture(scope="module")
def task():
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE,
                    success_tolerance=0.02)


class TestFilterBySuccess:
    def test_keeps_only_top_band(self, candidates, task):
        pool = filter_by_success(candidates, task)
        assert all(c.success_rate >= 0.78 for c in pool)
        assert len(pool) == 3

    def test_min_success_rate_enforced(self, candidates):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE,
                        min_success_rate=0.9)
        with pytest.raises(ConfigError):
            filter_by_success(candidates, task)

    def test_empty_input(self, task):
        assert filter_by_success([], task) == []

    def test_wide_tolerance_keeps_everything(self, candidates):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE,
                        success_tolerance=1.0)
        assert len(filter_by_success(candidates, task)) == 4


class TestSelections:
    def test_high_throughput_picks_fastest_eligible(self, candidates, task):
        choice = select_high_throughput(candidates, task)
        assert choice.design.accelerator.pe_rows == 128

    def test_low_power_picks_smallest(self, candidates, task):
        choice = select_low_power(candidates, task)
        assert choice.design.accelerator.pe_rows == 8

    def test_high_efficiency_maximises_fps_per_watt(self, candidates, task):
        choice = select_high_efficiency(candidates, task)
        best = max(filter_by_success(candidates, task),
                   key=lambda c: c.evaluation.compute_efficiency_fps_per_w)
        assert choice is best

    def test_low_success_candidate_never_selected(self, candidates, task):
        for chooser in TRADITIONAL_STRATEGIES.values():
            assert chooser(candidates, task).success_rate >= 0.78

    def test_registry_contains_three_strategies(self):
        assert set(TRADITIONAL_STRATEGIES) == {"HT", "LP", "HE"}
