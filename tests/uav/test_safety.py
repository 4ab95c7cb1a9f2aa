"""Unit and property tests for the safety (roofline) model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.uav.physics import max_acceleration
from repro.uav.platforms import ASCTEC_PELICAN, DJI_SPARK, NANO_ZHANG
from repro.uav.safety import (
    BLIND_FRACTION,
    knee_throughput_hz,
    safe_velocity,
    velocity_ceiling,
)

accel = st.floats(0.5, 50.0, allow_nan=False)
distance = st.floats(0.5, 20.0, allow_nan=False)
throughput = st.floats(0.1, 500.0, allow_nan=False)


class TestVelocityCeiling:
    def test_formula(self):
        assert velocity_ceiling(8.0, 2.0) == pytest.approx((2 * 8 * 2) ** 0.5)

    def test_zero_accel_zero_ceiling(self):
        assert velocity_ceiling(0.0, 2.0) == 0.0

    def test_rejects_bad_distance(self):
        with pytest.raises(ConfigError):
            velocity_ceiling(1.0, 0.0)


class TestRooflineSafeVelocity:
    def test_linear_region(self):
        # Well below the knee, velocity is reaction-bounded.
        v = safe_velocity(22.6, 2.0, 6.0)
        assert v == pytest.approx(BLIND_FRACTION * 2.0 * 6.0)

    def test_saturates_at_ceiling(self):
        v = safe_velocity(22.6, 2.0, 1000.0)
        assert v == pytest.approx(velocity_ceiling(22.6, 2.0))

    def test_zero_throughput_zero_velocity(self):
        assert safe_velocity(22.6, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("sense_distance, throughput, blind", [
        (0.0, 6.0, BLIND_FRACTION),
        (2.0, -1.0, BLIND_FRACTION),
        (2.0, 6.0, 0.0),
    ], ids=["sense-distance", "throughput", "blind-fraction"])
    def test_rejects_invalid_inputs(self, sense_distance, throughput, blind):
        with pytest.raises(ConfigError):
            safe_velocity(22.6, sense_distance, throughput,
                          blind_fraction=blind)

    def test_doubling_throughput_below_knee_doubles_velocity(self):
        knee = knee_throughput_hz(22.6, 2.0)
        v1 = safe_velocity(22.6, 2.0, knee / 4)
        v2 = safe_velocity(22.6, 2.0, knee / 2)
        assert v2 == pytest.approx(2 * v1)

    @given(a=accel, d=distance, t=throughput)
    def test_monotone_in_throughput(self, a, d, t):
        assert safe_velocity(a, d, t + 1.0) >= safe_velocity(a, d, t)

    @given(a=accel, d=distance, t=throughput)
    def test_never_exceeds_ceiling(self, a, d, t):
        assert safe_velocity(a, d, t) <= velocity_ceiling(a, d) + 1e-12

    @given(a=accel, d=distance, t=throughput)
    def test_more_agility_never_hurts(self, a, d, t):
        assert safe_velocity(a + 1.0, d, t) >= safe_velocity(a, d, t)


class TestKneePoint:
    def test_knee_is_intersection(self):
        a, d = 22.6, 2.0
        knee = knee_throughput_hz(a, d)
        assert BLIND_FRACTION * d * knee == pytest.approx(
            velocity_ceiling(a, d))

    def test_fig11_nano_knee_near_46(self):
        # Fig. 11: the nano-UAV knee is ~46 Hz with the AP payload.
        accel = max_acceleration(NANO_ZHANG, 24.0)
        knee = knee_throughput_hz(accel, NANO_ZHANG.sense_distance_m)
        assert knee == pytest.approx(46.0, rel=0.05)

    def test_fig11_spark_knee_near_27(self):
        # Fig. 11: the DJI Spark knee is ~27 Hz.
        accel = max_acceleration(DJI_SPARK, 24.0)
        knee = knee_throughput_hz(accel, DJI_SPARK.sense_distance_m)
        assert knee == pytest.approx(27.0, rel=0.05)

    def test_mini_knee_below_spark(self):
        # Bigger, less agile platforms need less action throughput.
        accel = max_acceleration(ASCTEC_PELICAN, 24.0)
        knee = knee_throughput_hz(accel, ASCTEC_PELICAN.sense_distance_m)
        assert knee < 27.0

    def test_payload_lowers_knee(self):
        light = knee_throughput_hz(max_acceleration(NANO_ZHANG, 20.0), 2.0)
        heavy = knee_throughput_hz(max_acceleration(NANO_ZHANG, 60.0), 2.0)
        assert heavy < light

    def test_zero_accel_zero_knee(self):
        assert knee_throughput_hz(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("sense_distance, blind", [
        (-2.0, BLIND_FRACTION),
        (2.0, -0.1),
    ], ids=["sense-distance", "blind-fraction"])
    def test_rejects_invalid_inputs(self, sense_distance, blind):
        with pytest.raises(ConfigError):
            knee_throughput_hz(22.6, sense_distance, blind_fraction=blind)

    @given(a=accel, d=distance)
    def test_velocity_at_knee_equals_ceiling(self, a, d):
        knee = knee_throughput_hz(a, d)
        assert safe_velocity(a, d, knee) == pytest.approx(
            velocity_ceiling(a, d), rel=1e-9)
