"""The smoke sweep's knee points, pinned.

``autopilot bench --tags smoke --platforms nano --budget 12 --seed 3``
sweeps five scenarios.  A registry edit that silently moves one of
their selected designs fails here with the cell that drifted.  Values
are rounded to 4 dp; ``design`` is the exact design string.
"""

from __future__ import annotations

import pytest

from repro.bench import BenchRunner, build_suite
from repro.core.evalcache import reset_shared_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig

#: scenario -> (design, knee Hz, missions, SoC W, success rate).
PINNED_CELLS = {
    "low": (
        "e2e-L6-F32 on [32x256 PEs, SRAM i/f/o = 512/128/128 KB, WS, "
        "100 MHz]", 46.4824, 88.2215, 0.5342, 0.8834),
    "dense": (
        "e2e-L7-F32 on [8x32 PEs, SRAM i/f/o = 256/512/256 KB, WS, "
        "162 MHz]", 46.8999, 91.6442, 0.368, 0.7842),
    "corridor-narrow": (
        "e2e-L8-F48 on [16x64 PEs, SRAM i/f/o = 2048/2048/1024 KB, WS, "
        "140 MHz]", 46.3455, 82.9675, 0.5893, 0.786),
    "urban-canyon": (
        "e2e-L2-F48 on [256x128 PEs, SRAM i/f/o = 4096/4096/64 KB, WS, "
        "100 MHz]", 44.0417, 67.0749, 1.5616, 0.8188),
    "open-field": (
        "e2e-L7-F32 on [8x32 PEs, SRAM i/f/o = 256/512/256 KB, WS, "
        "162 MHz]", 46.8999, 91.6442, 0.368, 0.8791),
}


@pytest.fixture(scope="module")
def metrics():
    reset_shared_cache()
    suite = build_suite(tags=["smoke"], platforms=["nano"])
    rows = BenchRunner(AutoPilot(RunConfig(seed=3, budget=12))).run(
        suite).metrics
    reset_shared_cache()
    return rows


def test_sweep_covers_at_least_five_cells(metrics):
    assert len(metrics) >= 5


def test_every_cell_is_a_working_design(metrics):
    for row in metrics:
        assert 0.0 < row.success_rate <= 1.0, row.scenario
        assert row.frames_per_second > 0.0, row.scenario


@pytest.mark.parametrize("scenario", list(PINNED_CELLS))
def test_knee_point_is_pinned(metrics, scenario):
    (row,) = [r for r in metrics if r.scenario == scenario]
    assert (row.design, round(row.knee_throughput_hz, 4),
            round(row.num_missions, 4), round(row.soc_power_w, 4),
            round(row.success_rate, 4)) == PINNED_CELLS[scenario]
