"""Unit tests for Table IV platforms."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.uav.platforms import (
    ALL_PLATFORMS,
    ASCTEC_PELICAN,
    DJI_SPARK,
    NANO_ZHANG,
    UavClass,
    platform_by_class,
    platform_by_name,
)


class TestTableIV:
    def test_three_platforms(self):
        assert len(ALL_PLATFORMS) == 3

    def test_battery_capacities_match_table(self):
        assert ASCTEC_PELICAN.battery_capacity_mah == 6250
        assert DJI_SPARK.battery_capacity_mah == 1480
        assert NANO_ZHANG.battery_capacity_mah == 500

    def test_base_weights_match_table(self):
        assert ASCTEC_PELICAN.base_weight_g == 1650
        assert DJI_SPARK.base_weight_g == 300
        assert NANO_ZHANG.base_weight_g == 50

    def test_classes(self):
        assert ASCTEC_PELICAN.uav_class is UavClass.MINI
        assert DJI_SPARK.uav_class is UavClass.MICRO
        assert NANO_ZHANG.uav_class is UavClass.NANO

    def test_battery_energy_conversion(self):
        # 500 mAh at 3.7 V = 1.85 Wh = 6660 J.
        assert NANO_ZHANG.battery_energy_j == pytest.approx(6660.0)

    def test_battery_energy_ordering_follows_size(self):
        assert ASCTEC_PELICAN.battery_energy_j > DJI_SPARK.battery_energy_j \
            > NANO_ZHANG.battery_energy_j

    def test_thrust_ordering_follows_size(self):
        assert ASCTEC_PELICAN.max_thrust_n > DJI_SPARK.max_thrust_n \
            > NANO_ZHANG.max_thrust_n

    def test_flight_controller_is_pid(self):
        for platform in ALL_PLATFORMS:
            assert "PID" in platform.flight_controller

    def test_lookup_by_name(self):
        assert platform_by_name("DJI Spark") is DJI_SPARK

    def test_lookup_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            platform_by_name("Phantom 4")

    def test_lookup_by_class(self):
        assert platform_by_class(UavClass.NANO) is NANO_ZHANG


class TestValidation:
    POSITIVE_FIELDS = ("battery_capacity_mah", "battery_voltage_v",
                       "base_weight_g", "max_thrust_n", "rotor_disk_area_m2",
                       "sense_distance_m", "mission_distance_m")

    def test_every_physical_quantity_must_be_positive(self):
        for field in self.POSITIVE_FIELDS:
            with pytest.raises(ConfigError, match=field):
                replace(NANO_ZHANG, **{field: 0.0})

    def test_negative_other_power_rejected(self):
        with pytest.raises(ConfigError, match="other_power_w"):
            replace(NANO_ZHANG, other_power_w=-0.1)

    def test_zero_other_power_allowed(self):
        assert replace(NANO_ZHANG, other_power_w=0.0).other_power_w == 0.0
