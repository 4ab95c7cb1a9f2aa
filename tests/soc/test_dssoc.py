"""Unit tests for DSSoC assembly and evaluation."""

import dataclasses

import pytest

from repro.core import evalcache
from repro.core.evalcache import (
    EvalCache,
    configure_shared_cache,
    estimate_key,
    evaluation_key,
    reset_shared_cache,
    shared_report_cache,
)
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams
from repro.perf import span
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.simulator import SystolicArraySimulator
from repro.soc import dssoc
from repro.soc.components import fixed_components_power_w
from repro.soc.dssoc import DssocDesign, DssocEvaluator, evaluate_dssoc
from tests.core.test_cache_schema import PROBE_DESIGNS, canonical


def make_design(rows=16, cols=16, sram=64, layers=5, filters=32):
    return DssocDesign(
        policy=PolicyHyperparams(num_layers=layers, num_filters=filters),
        accelerator=AcceleratorConfig(pe_rows=rows, pe_cols=cols,
                                      ifmap_sram_kb=sram,
                                      filter_sram_kb=sram,
                                      ofmap_sram_kb=sram),
    )


class TestDssocEvaluation:
    def test_soc_power_includes_fixed_components(self):
        evaluation = evaluate_dssoc(make_design())
        assert evaluation.soc_power_w > fixed_components_power_w()
        assert evaluation.soc_power_w == pytest.approx(
            evaluation.power.total_w + fixed_components_power_w())

    def test_tdp_equals_peak_power_at_default(self):
        evaluation = evaluate_dssoc(make_design())
        assert evaluation.tdp_w == pytest.approx(evaluation.soc_power_w)

    def test_operating_fps_lowers_power_not_tdp(self):
        design = make_design()
        peak = evaluate_dssoc(design)
        capped = evaluate_dssoc(design, operating_fps=5.0)
        assert capped.soc_power_w < peak.soc_power_w
        assert capped.tdp_w == pytest.approx(peak.tdp_w)

    def test_weight_derived_from_tdp(self):
        from repro.soc.weight import compute_weight
        evaluation = evaluate_dssoc(make_design())
        assert evaluation.compute_weight_g == pytest.approx(
            compute_weight(evaluation.tdp_w).total_g)

    def test_latency_and_fps_consistent(self):
        evaluation = evaluate_dssoc(make_design())
        assert evaluation.frames_per_second == pytest.approx(
            1.0 / evaluation.latency_seconds)

    def test_efficiency_metric(self):
        evaluation = evaluate_dssoc(make_design())
        assert evaluation.compute_efficiency_fps_per_w == pytest.approx(
            evaluation.frames_per_second / evaluation.soc_power_w)

    def test_bigger_policy_slower(self):
        small = evaluate_dssoc(make_design(layers=2))
        big = evaluate_dssoc(make_design(layers=10))
        assert big.latency_seconds > small.latency_seconds

    def test_bigger_array_faster_but_hotter(self):
        small = evaluate_dssoc(make_design(rows=16, cols=16))
        big = evaluate_dssoc(make_design(rows=128, cols=128))
        assert big.frames_per_second > small.frames_per_second
        assert big.soc_power_w > small.soc_power_w
        assert big.compute_weight_g > small.compute_weight_g

    def test_describe_mentions_policy_and_array(self):
        text = make_design().describe()
        assert "e2e-L5-F32" in text
        assert "16x16" in text


class TestDssocEvaluator:
    def test_network_cache_reused(self):
        evaluator = DssocEvaluator()
        policy = PolicyHyperparams(5, 32)
        first = evaluator.network_for(policy)
        second = evaluator.network_for(policy)
        assert first is second

    def test_rejects_nonpositive_operating_fps(self):
        with pytest.raises(ConfigError):
            DssocEvaluator(operating_fps=0.0)

    def test_evaluator_matches_one_shot(self):
        design = make_design()
        assert DssocEvaluator().evaluate(design).soc_power_w == pytest.approx(
            evaluate_dssoc(design).soc_power_w)

    def test_network_and_workload_are_built_once_per_process(self):
        policy = PolicyHyperparams(5, 32)
        assert DssocEvaluator().network_for(policy) is \
            DssocEvaluator().network_for(policy)
        assert DssocEvaluator().workload_for(policy) is \
            DssocEvaluator(operating_fps=60.0).workload_for(policy)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty private process-wide cache for one test."""
    cache = EvalCache()
    monkeypatch.setattr(evalcache, "_shared_cache", cache)
    return cache


@pytest.fixture
def power_calls(monkeypatch):
    """Every ``accelerator_power`` call the evaluator makes."""
    calls = []
    power = dssoc.accelerator_power

    def spy(report, config, frames_per_second=None):
        calls.append(frames_per_second)
        return power(report, config, frames_per_second=frames_per_second)

    monkeypatch.setattr(dssoc, "accelerator_power", spy)
    return calls


class TestEvaluationCache:
    """The finished evaluation is what the shared cache stores."""

    @pytest.mark.parametrize("operating_fps", [None, 60.0])
    @pytest.mark.parametrize("index", range(len(PROBE_DESIGNS)))
    def test_served_evaluation_matches_a_fresh_one(self, monkeypatch,
                                                   fresh_cache, index,
                                                   operating_fps):
        design = PROBE_DESIGNS[index]
        evaluator = DssocEvaluator(operating_fps=operating_fps)
        evaluator.evaluate(design)
        served = evaluator.evaluate(dataclasses.replace(design))
        assert (fresh_cache.stats.hits, fresh_cache.stats.misses) == (1, 1)

        monkeypatch.setattr(evalcache, "_shared_cache", EvalCache())
        fresh = evaluator.evaluate(design)
        assert shared_report_cache().stats.misses == 1
        assert fresh is not served
        assert canonical(served) == canonical(fresh)
        report = SystolicArraySimulator(design.accelerator).run(
            evaluator.workload_for(design.policy))
        assert canonical(served.report) == canonical(report)

    def test_operating_rates_never_share_an_entry(self, fresh_cache):
        design = PROBE_DESIGNS[1]
        peak = DssocEvaluator().evaluate(design)
        capped = DssocEvaluator(operating_fps=60.0).evaluate(design)
        assert fresh_cache.stats.misses == 2
        assert len(fresh_cache) == 2
        assert evaluation_key(design, None) != evaluation_key(design, 60.0)
        assert capped.soc_power_w < peak.soc_power_w
        assert DssocEvaluator().evaluate(design) is peak
        assert DssocEvaluator(operating_fps=60.0).evaluate(design) is capped

    def test_key_tag_is_disjoint_from_reports_and_estimates(self):
        design = PROBE_DESIGNS[0]
        workload = DssocEvaluator.workload_for(design.policy)
        tags = {evaluation_key(design, None)[0],
                estimate_key(workload, design.accelerator)[0]}
        assert len(tags) == 2

    def test_reset_drops_cached_evaluations(self, fresh_cache):
        design = PROBE_DESIGNS[0]
        first = DssocEvaluator().evaluate(design)
        reset_shared_cache()
        again = DssocEvaluator().evaluate(design)
        assert again is not first
        assert (fresh_cache.stats.hits, fresh_cache.stats.misses) == (0, 1)

    def test_configure_drops_cached_evaluations(self, fresh_cache):
        design = PROBE_DESIGNS[0]
        first = DssocEvaluator().evaluate(design)
        replaced = configure_shared_cache(capacity=8)
        again = DssocEvaluator().evaluate(design)
        assert again is not first
        assert len(replaced) == 1
        assert (replaced.stats.hits, replaced.stats.misses) == (0, 1)

    @pytest.mark.parametrize("operating_fps, first_calls",
                             [(None, 1), (60.0, 2)])
    def test_repeat_is_one_hit_and_no_power_model(self, fresh_cache,
                                                  power_calls,
                                                  operating_fps,
                                                  first_calls):
        design = PROBE_DESIGNS[2]
        evaluator = DssocEvaluator(operating_fps=operating_fps)
        first = evaluator.evaluate(design)
        assert len(power_calls) == first_calls
        with span("again") as lookup:
            again = DssocEvaluator(operating_fps=operating_fps).evaluate(
                dataclasses.replace(design))
        assert lookup.counts == {"cache.hits": 1}
        assert len(power_calls) == first_calls
        assert again is first
        assert again.design is design
