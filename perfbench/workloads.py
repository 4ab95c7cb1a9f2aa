"""The benchmark's workloads: fixed ``autopilot`` command lines.

Each workload is one public-CLI invocation at program seed 7 with a
golden sha256 of the report it writes with ``--output``.  The inputs are
fixed on purpose: a fixed command is what makes every run's report
checkable against one golden digest and every median comparable across
commits.  Re-derive a digest only when the program's fixed-seed output
is meant to change.  Why each workload was chosen is stated in
``BENCHMARK.json``; ``phase1-trainer`` is left out of it and only run by
hand (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SEED = "7"
NANO_DENSE = ("--uav", "nano", "--scenario", "dense", "--seed", SEED)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload id, as passed to ``run.py --workload``.
        args: ``autopilot`` arguments, without ``--output``.
        digest: Golden sha256 of the ``--output`` report.
        checkpoint: Whether each run gets a fresh ``--checkpoint-dir``.
        cores: How many of the benchmark's CPUs a run is pinned to;
            ``None`` for all of them.
    """

    name: str
    args: Tuple[str, ...]
    digest: str
    checkpoint: bool = False
    cores: Optional[int] = None

    def cli_args(self, run_dir: Path) -> List[str]:
        """The full argument list for one run whose scratch is ``run_dir``."""
        args = list(self.args) + ["--output", str(run_dir / "report.md")]
        if self.checkpoint:
            args += ["--checkpoint-dir", str(run_dir / "checkpoint")]
        return args


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="design-q1-b100",
        args=("design",) + NANO_DENSE + ("--budget", "100"),
        digest=(
            "8a736d56291e69337109232cd90e8d3cf265b861756144c5c8bac1388a75e85e"),
        cores=1),
    Workload(
        name="bench-q8-w2",
        args=("bench", "--seed", SEED, "--budget", "24",
              "--proposal-batch", "8", "--workers", "2"),
        digest=(
            "0f507dcff204ac8a48161da68d77829e6edbf324b0cdfc0be8feb79d936aec30"),
        checkpoint=True),
    Workload(
        name="phase1-trainer",
        args=("design",) + NANO_DENSE + (
            "--phase1-backend", "trainer", "--cem-population", "4",
            "--cem-iterations", "1", "--cem-episodes", "1",
            "--budget", "40", "--proposal-batch", "8"),
        digest=(
            "d141db1c7bbcba9f60b4c57e97657a3df2a198956e3a03e8ab2cc4ad03b259a0"),
        cores=1),
)}
