"""The bench runner: one resumable, cache-sharing sweep over cells.

The runner drives *one* :class:`~repro.core.pipeline.AutoPilot`
instance through every (scenario, platform) cell of a suite, so all the
pipeline's sharing machinery works across cells: the Air Learning
database accumulates Phase 1 results per scenario, the in-memory
Phase 2 cache serves every platform of a scenario from one DSE run,
and the content-addressed evaluation caches deduplicate across the
whole sweep.

Checkpointing composes with the run checkpoint format rather than
inventing a new one: the bench directory holds a small atomic
``bench.json`` manifest (the sweep's identity, written once when the
sweep starts) plus one standard AutoPilot checkpoint directory per
cell, whose own ``manifest.json`` is the one record of that cell's
progress::

    <bench-dir>/
      bench.json                    atomic bench manifest
      cells/<scenario>__<class>/    a normal AutoPilot run directory
        manifest.json
        phase1/                     trainer backend only

Resume verifies ``bench.json`` without rewriting it and re-runs every
cell, each with ``resume=True`` once its own manifest exists: finished
and interrupted cells alike recompute what the run directory does not
hold, which also rebuilds the shared caches the later cells read.  So a
killed-and-resumed bench run is bit-identical to an uninterrupted one
-- the CI ``bench-smoke`` job diffs the two reports byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Union

from repro.bench.metrics import CellMetrics, metrics_for
from repro.bench.suite import BenchCell, BenchSuite, build_suite
from repro.core.checkpoint import MANIFEST_NAME, Manifest
from repro.core.pipeline import AutoPilot, AutoPilotResult
from repro.core.spec import RunConfig
from repro.errors import ConfigError

#: File name of the bench manifest inside a bench directory.
BENCH_MANIFEST_NAME = "bench.json"
#: Bump when the bench layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


@dataclass
class BenchManifest(Manifest):
    """Durable identity of one bench sweep.

    Mirrors :class:`~repro.core.checkpoint.RunManifest` one level up.
    It records *which* cells the sweep consists of, so ``autopilot bench
    --resume`` can rebuild the exact suite without re-deriving it from
    command-line filters.  It holds no progress: each cell's status
    lives in the manifest of its own run directory.  Manifests that
    earlier versions wrote carry a per-cell ``cells`` map, which loading
    ignores.
    """

    FILE_NAME: ClassVar[str] = BENCH_MANIFEST_NAME
    NOUN: ClassVar[str] = "bench"
    MISMATCH: ClassVar[str] = ("cannot resume bench at {directory}: the "
                               "recorded sweep differs from the requested "
                               "one")

    scenarios: List[str]
    platforms: List[str]
    sensor_fps: float
    config: RunConfig
    schema: int = BENCH_SCHEMA_VERSION

    def suite(self) -> BenchSuite:
        """The suite this sweep was recorded for."""
        return build_suite(ids=self.scenarios, platforms=self.platforms)


@dataclass
class BenchResult:
    """Everything produced by one bench sweep."""

    suite: BenchSuite
    metrics: List[CellMetrics]
    #: Full per-cell pipeline results, keyed by cell id.
    results: Dict[str, AutoPilotResult]


class BenchRunner:
    """Sweep a suite's cells through one shared AutoPilot pipeline."""

    def __init__(self, autopilot: AutoPilot, sensor_fps: float = 60.0,
                 checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
                 resume: bool = False, profile: bool = False):
        if sensor_fps <= 0:
            # Each cell's TaskSpec would refuse it, after the sweep had
            # written its manifest: refuse it before any work.
            raise ConfigError("sensor_fps must be positive")
        self.autopilot = autopilot
        self.sensor_fps = sensor_fps
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.resume = resume
        self.profile = profile

    def _cell_dir(self, cell: BenchCell) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / "cells" / cell.cell_id

    # ------------------------------------------------------------------
    def run(self, suite: BenchSuite) -> BenchResult:
        """Run (or resume) every cell of the suite.

        Cells run through the shared pipeline instance sequentially in
        suite order; the only parallelism is Phase 1's training pool
        inside a cell, which is what lets consecutive cells share the
        scenario database and Phase 2 cache.
        """
        if self.checkpoint_dir is not None:
            manifest = BenchManifest(
                scenarios=list(suite.scenario_ids),
                platforms=list(suite.platforms),
                sensor_fps=self.sensor_fps, config=self.autopilot.config)
            if self.resume:
                manifest.check_resume(self.checkpoint_dir)
            else:
                manifest.save(self.checkpoint_dir)

        metrics: List[CellMetrics] = []
        results: Dict[str, AutoPilotResult] = {}
        for cell in suite.cells():
            cell_dir = self._cell_dir(cell)
            # A cell resumes iff its own run manifest exists -- a sweep
            # killed before reaching a cell simply starts it fresh.
            # Completed cells run again too, which repopulates the
            # shared caches exactly as the uninterrupted sweep did.
            cell_resume = (self.resume and cell_dir is not None
                           and (cell_dir / MANIFEST_NAME).exists())
            result = self.autopilot.run(
                cell.task(self.sensor_fps), profile=self.profile,
                checkpoint_dir=cell_dir, resume=cell_resume)
            metrics.append(metrics_for(cell, result))
            results[cell.cell_id] = result
        return BenchResult(suite=suite, metrics=metrics, results=results)
