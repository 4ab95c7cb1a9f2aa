"""Unit tests for frequency scaling."""

import pytest

from repro.errors import ConfigError
from repro.power.technology import frequency_power_factor


class TestFrequencyPowerFactor:
    def test_identity_at_nominal(self):
        assert frequency_power_factor(1.0) == pytest.approx(1.0)

    def test_cubic_within_window(self):
        # f * V(f)^2 with V tracking f: 0.8x clock -> 0.512x power.
        assert frequency_power_factor(0.8) == pytest.approx(0.8 ** 3)

    def test_voltage_clamps_outside_window(self):
        # Below the window, power falls only linearly with f.
        assert frequency_power_factor(0.25) == pytest.approx(0.25 * 0.5 ** 2)

    def test_overclocking_superlinear(self):
        assert frequency_power_factor(1.4) == pytest.approx(1.4 ** 3)
        assert frequency_power_factor(2.0) == pytest.approx(2.0 * 1.5 ** 2)

    def test_monotonic(self):
        scales = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
        factors = [frequency_power_factor(s) for s in scales]
        assert factors == sorted(factors)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            frequency_power_factor(0.0)

    @pytest.mark.parametrize("edge", [0.5, 1.5])
    def test_continuous_at_window_edges(self, edge):
        # The cubic and linear regimes meet where the rail saturates.
        below = frequency_power_factor(edge - 1e-9)
        above = frequency_power_factor(edge + 1e-9)
        assert below == pytest.approx(edge ** 3, rel=1e-6)
        assert above == pytest.approx(edge ** 3, rel=1e-6)

    def test_custom_window_moves_the_clamp(self):
        # With a (0.8, 1.2) window, 0.6x clock keeps the 0.8x voltage.
        assert frequency_power_factor(0.6, dvfs_window=(0.8, 1.2)) == \
            pytest.approx(0.6 * 0.8 ** 2)
        assert frequency_power_factor(1.0, dvfs_window=(0.8, 1.2)) == \
            pytest.approx(1.0)
