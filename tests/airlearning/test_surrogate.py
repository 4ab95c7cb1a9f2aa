"""Unit tests for the calibrated success-rate surrogate."""

import pytest

from repro.airlearning.scenarios import ALL_SCENARIOS, Scenario
from repro.airlearning.surrogate import MIN_SUCCESS_RATE, SuccessRateSurrogate
from repro.nn.template import PolicyHyperparams, enumerate_template_space


@pytest.fixture(scope="module")
def surrogate():
    return SuccessRateSurrogate(seed=0)


class TestSuccessBand:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_all_rates_within_reported_band(self, surrogate, scenario):
        # Section III-A: success rates span 60% to 91%.
        for point in enumerate_template_space():
            rate = surrogate.success_rate(point, scenario)
            assert MIN_SUCCESS_RATE <= rate <= 0.91

    def test_peak_rates_match_paper(self, surrogate):
        assert surrogate.success_rate(PolicyHyperparams(5, 32),
                                      Scenario.LOW) == pytest.approx(0.91,
                                                                     abs=0.01)
        assert surrogate.success_rate(PolicyHyperparams(7, 48),
                                      Scenario.DENSE) == pytest.approx(
            0.80, abs=0.01)


class TestScenarioOptima:
    def test_low_optimum_is_5_layers_32_filters(self, surrogate):
        best = max(enumerate_template_space(),
                   key=lambda p: surrogate.success_rate(p, Scenario.LOW))
        assert (best.num_layers, best.num_filters) == (5, 32)

    def test_medium_optimum_is_4_layers_48_filters(self, surrogate):
        best = max(enumerate_template_space(),
                   key=lambda p: surrogate.success_rate(p, Scenario.MEDIUM))
        assert (best.num_layers, best.num_filters) == (4, 48)

    def test_dense_optimum_is_7_layers_48_filters(self, surrogate):
        best = max(enumerate_template_space(),
                   key=lambda p: surrogate.success_rate(p, Scenario.DENSE))
        assert (best.num_layers, best.num_filters) == (7, 48)


class TestShape:
    def test_success_falls_away_from_optimum(self, surrogate):
        # Walking away from the dense optimum in depth lowers success.
        dense = Scenario.DENSE
        at_opt = surrogate.success_rate(PolicyHyperparams(7, 48), dense)
        near = surrogate.success_rate(PolicyHyperparams(5, 48), dense)
        far = surrogate.success_rate(PolicyHyperparams(2, 48), dense)
        assert at_opt > near > far

    def test_deterministic(self):
        a = SuccessRateSurrogate(seed=0)
        b = SuccessRateSurrogate(seed=0)
        point = PolicyHyperparams(6, 64)
        assert a.success_rate(point, Scenario.LOW) == \
            b.success_rate(point, Scenario.LOW)

    def test_seed_changes_jitter_slightly(self):
        a = SuccessRateSurrogate(seed=0)
        b = SuccessRateSurrogate(seed=1)
        point = PolicyHyperparams(6, 64)
        delta = abs(a.success_rate(point, Scenario.LOW)
                    - b.success_rate(point, Scenario.LOW))
        assert delta < 0.02

    def test_scenarios_have_distinct_tables(self, surrogate):
        point = PolicyHyperparams(5, 32)
        rates = {s: surrogate.success_rate(point, s) for s in ALL_SCENARIOS}
        assert len(set(rates.values())) == 3
