"""The bench runner: one resumable, cache-sharing sweep over cells.

The runner drives *one* :class:`~repro.core.pipeline.AutoPilot`
instance through every (scenario, platform) cell of a suite, so all the
pipeline's sharing machinery works across cells: the Air Learning
database accumulates Phase 1 results per scenario, the in-memory
Phase 2 cache serves every platform of a scenario from one DSE run,
and the content-addressed evaluation caches deduplicate across the
whole sweep.

Checkpointing composes with the PR-4 run format rather than inventing a
new one: the bench directory holds a small atomic ``bench.json``
manifest (the sweep's identity and per-cell status) plus one standard
AutoPilot checkpoint directory per cell::

    <bench-dir>/
      bench.json                    atomic bench manifest
      cells/<scenario>__<class>/    a normal AutoPilot run directory
        manifest.json
        phase1/ phase2/ ...

Resume replays completed cells from their journals and picks the
interrupted cell up mid-phase, so a killed-and-resumed bench run is
bit-identical to an uninterrupted one -- the CI ``bench-smoke`` job
diffs the two reports byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.bench.metrics import CellMetrics, metrics_for
from repro.bench.suite import BenchCell, BenchSuite
from repro.core.checkpoint import atomic_write_json
from repro.core.pipeline import AutoPilot, AutoPilotResult
from repro.errors import CheckpointError

#: File name of the bench manifest inside a bench directory.
BENCH_MANIFEST_NAME = "bench.json"
#: Bump when the bench layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

@dataclass
class BenchManifest:
    """Durable identity and progress record of one bench sweep.

    Mirrors :class:`~repro.core.checkpoint.RunManifest` one level up:
    the per-cell pipeline state lives in each cell's own run directory;
    this manifest records *which* cells the sweep consists of and which
    have completed, so ``autopilot bench --resume`` can rebuild the
    exact suite without re-deriving it from command-line filters.
    """

    scenarios: List[str]
    platforms: List[str]
    budget: int
    seed: int
    sensor_fps: float = 60.0
    frontend_backend: str = "surrogate"
    trainer: Optional[Dict[str, Any]] = None
    proposal_batch: int = 1
    gp_refit_every: int = 1
    fidelity: str = "off"
    promotion_eta: float = 0.5
    #: cell id -> ``pending`` / ``running`` / ``complete``.
    cells: Dict[str, str] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA_VERSION

    def save(self, bench_dir: Union[str, os.PathLike]) -> None:
        """Atomically (re)write the manifest into ``bench_dir``."""
        atomic_write_json(Path(bench_dir) / BENCH_MANIFEST_NAME,
                          asdict(self))

    @classmethod
    def load(cls, bench_dir: Union[str, os.PathLike]) -> "BenchManifest":
        """Load the manifest of ``bench_dir``.

        Raises:
            CheckpointError: when the manifest is missing, unreadable,
                structurally corrupt or from an incompatible schema.
        """
        path = Path(bench_dir) / BENCH_MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(
                f"no bench manifest found at {path}: nothing to resume "
                "(was the bench started with --checkpoint-dir?)")
        try:
            payload = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt bench manifest at {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"corrupt bench manifest at {path}: expected a JSON object")
        if payload.get("schema") != BENCH_SCHEMA_VERSION:
            raise CheckpointError(
                f"bench manifest at {path} has schema "
                f"{payload.get('schema')!r}; this version reads schema "
                f"{BENCH_SCHEMA_VERSION}")
        known = {f.name for f in fields(cls)}
        try:
            return cls(**{k: v for k, v in payload.items() if k in known})
        except TypeError as exc:
            raise CheckpointError(
                f"corrupt bench manifest at {path}: {exc}") from exc


@dataclass
class BenchResult:
    """Everything produced by one bench sweep."""

    suite: BenchSuite
    metrics: List[CellMetrics]
    #: Full per-cell pipeline results, keyed by cell id.
    results: Dict[str, AutoPilotResult]


class BenchRunner:
    """Sweep a suite's cells through one shared AutoPilot pipeline."""

    def __init__(self, autopilot: AutoPilot, budget: int = 40,
                 sensor_fps: float = 60.0,
                 checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
                 resume: bool = False, profile: bool = False):
        self.autopilot = autopilot
        self.budget = budget
        self.sensor_fps = sensor_fps
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.resume = resume
        self.profile = profile

    # ------------------------------------------------------------------
    def manifest_for(self, suite: BenchSuite) -> BenchManifest:
        """The manifest describing this sweep's configuration."""
        pilot = self.autopilot
        trainer_cfg = None
        if pilot.frontend.backend == "trainer":
            trainer = pilot.frontend.trainer
            trainer_cfg = {
                "population_size": trainer.population_size,
                "elite_count": trainer.elite_count,
                "episodes_per_candidate": trainer.episodes_per_candidate,
                "iterations": trainer.iterations,
                "initial_std": trainer.initial_std,
                "engine": trainer.engine,
            }
        optimizer_kwargs = pilot.optimizer_kwargs or {}
        return BenchManifest(
            scenarios=list(suite.scenario_ids),
            platforms=list(suite.platforms),
            budget=self.budget,
            seed=pilot.seed,
            sensor_fps=self.sensor_fps,
            frontend_backend=pilot.frontend.backend,
            trainer=trainer_cfg,
            proposal_batch=optimizer_kwargs.get("proposal_batch", 1),
            gp_refit_every=optimizer_kwargs.get("gp_refit_every", 1),
            fidelity=pilot.fidelity,
            promotion_eta=pilot.promotion_eta,
            cells={cell.cell_id: "pending" for cell in suite.cells()})

    @staticmethod
    def _verify_manifest(previous: BenchManifest, current: BenchManifest,
                         bench_dir: Path) -> None:
        """Refuse to resume a sweep under a different configuration."""
        mismatched = [
            name for name in ("scenarios", "platforms", "budget", "seed",
                              "sensor_fps", "frontend_backend", "trainer",
                              "proposal_batch", "gp_refit_every",
                              "fidelity", "promotion_eta")
            if getattr(previous, name) != getattr(current, name)]
        if mismatched:
            details = ", ".join(
                f"{name}: recorded {getattr(previous, name)!r}, "
                f"requested {getattr(current, name)!r}"
                for name in mismatched)
            raise CheckpointError(
                f"cannot resume bench at {bench_dir}: the recorded sweep "
                f"differs from the requested one ({details})")

    def _cell_dir(self, cell: BenchCell) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / "cells" / cell.cell_id

    # ------------------------------------------------------------------
    def run(self, suite: BenchSuite) -> BenchResult:
        """Run (or resume) every cell of the suite.

        Cells run through the shared pipeline instance sequentially in
        suite order; parallelism lives *inside* each cell (Phase 1's
        training pool and Phase 2's batched kernels), which is what
        lets consecutive cells share the scenario database and Phase 2
        cache.
        """
        manifest: Optional[BenchManifest] = None
        if self.checkpoint_dir is not None:
            manifest = self.manifest_for(suite)
            if self.resume:
                previous = BenchManifest.load(self.checkpoint_dir)
                self._verify_manifest(previous, manifest,
                                      self.checkpoint_dir)
                # Keep the recorded per-cell progress for status
                # reporting; actual resumability is decided per cell by
                # the presence of its run manifest.
                manifest.cells.update(previous.cells)
            manifest.save(self.checkpoint_dir)

        metrics: List[CellMetrics] = []
        results: Dict[str, AutoPilotResult] = {}
        for cell in suite.cells():
            cell_dir = self._cell_dir(cell)
            # A cell resumes iff its own run manifest exists -- a sweep
            # killed before reaching a cell simply starts it fresh, and
            # completed cells replay their journals bit-identically
            # (repopulating the shared caches deterministically).
            cell_resume = (self.resume and cell_dir is not None
                           and (cell_dir / "manifest.json").exists())
            if manifest is not None:
                manifest.cells[cell.cell_id] = "running"
                manifest.save(self.checkpoint_dir)
            result = self.autopilot.run(
                cell.task(self.sensor_fps), budget=self.budget,
                profile=self.profile,
                checkpoint_dir=cell_dir, resume=cell_resume)
            metrics.append(metrics_for(cell, result))
            results[cell.cell_id] = result
            if manifest is not None:
                manifest.cells[cell.cell_id] = "complete"
                manifest.save(self.checkpoint_dir)
        return BenchResult(suite=suite, metrics=metrics, results=results)
