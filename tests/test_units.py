"""Unit tests for unit conversions and constants."""

import pytest

from repro import units


class TestConversions:
    def test_grams_to_kg(self):
        assert units.grams_to_kg(123.0) == pytest.approx(0.123)

    def test_mah_to_joules(self):
        # 1000 mAh at 1 V = 1 Ah * 1 V * 3600 s = 3600 J.
        assert units.mah_to_joules(1000.0, 1.0) == pytest.approx(3600.0)

    def test_nano_battery_energy(self):
        # Table IV nano: 500 mAh at 3.7 V = 6660 J.
        assert units.mah_to_joules(500.0, 3.7) == pytest.approx(6660.0)


class TestConstants:
    def test_gravity(self):
        assert units.GRAVITY == pytest.approx(9.80665)

    def test_air_density_sea_level(self):
        assert units.AIR_DENSITY == pytest.approx(1.225)

    def test_aluminium_density(self):
        assert units.ALUMINIUM_DENSITY_G_PER_CM3 == pytest.approx(2.70)

    def test_kb_mb(self):
        assert units.MB == 1024 * units.KB == 1024 * 1024
