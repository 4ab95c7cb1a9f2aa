"""Persisting Phase 2 results (the paper's design-reuse workflow).

AutoPilot's phases are deliberately decoupled so expensive Phase 1/2
artefacts are reused across UAVs ("a bad design point for one UAV type
can be a balanced design ... for another").  This module serialises a
Phase 2 candidate pool to CSV/JSON and reloads it for a later Phase 3
pass -- designs are re-materialised from their parameters and
re-evaluated (the simulators are deterministic, so metrics round-trip).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.scenarios import Scenario
from repro.core.phase2 import CandidateDesign, Phase2Result
from repro.core.spec import assignment_to_design, design_to_assignment
from repro.errors import ConfigError
from repro.soc.dssoc import DssocEvaluator

#: Column order of the CSV export.
_COLUMNS = ("num_layers", "num_filters", "pe_rows", "pe_cols",
            "ifmap_sram_kb", "filter_sram_kb", "ofmap_sram_kb",
            "success_rate", "latency_s", "soc_power_w", "fps",
            "compute_weight_g")


def _candidate_record(candidate: CandidateDesign) -> dict:
    record = dict(design_to_assignment(candidate.design))
    record.update({
        "success_rate": candidate.success_rate,
        "latency_s": candidate.evaluation.latency_seconds,
        "soc_power_w": candidate.soc_power_w,
        "fps": candidate.frames_per_second,
        "compute_weight_g": candidate.compute_weight_g,
    })
    return record


def export_candidates_csv(result: Phase2Result, path: Path | str) -> int:
    """Write all candidates to CSV; returns the row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_COLUMNS)
        writer.writeheader()
        for candidate in result.candidates:
            writer.writerow(_candidate_record(candidate))
    return len(result.candidates)


def export_candidates_json(result: Phase2Result, path: Path | str) -> int:
    """Write all candidates to JSON; returns the row count."""
    payload = [_candidate_record(c) for c in result.candidates]
    Path(path).write_text(json.dumps(payload, indent=2))
    return len(payload)


def load_candidates_json(path: Path | str, scenario: Scenario,
                         database: AirLearningDatabase
                         ) -> List[CandidateDesign]:
    """Re-materialise candidates from a JSON export.

    Designs are rebuilt from their parameters and re-evaluated through
    the deterministic simulators; success rates come from the database
    (the authoritative Phase 1 artefact), and the stored metrics are
    cross-checked against the re-evaluation.
    """
    payload = json.loads(Path(path).read_text())
    evaluator = DssocEvaluator()
    candidates = []
    for record in payload:
        assignment = {name: record[name] for name in _COLUMNS[:7]}
        design = assignment_to_design(assignment)
        evaluation = evaluator.evaluate(design)
        stored = record.get("soc_power_w")
        if stored is not None and abs(stored - evaluation.soc_power_w) \
                > 0.05 * max(stored, 1e-9):
            raise ConfigError(
                f"stored metrics for {design.describe()} do not match "
                f"re-evaluation; the export predates a model change")
        candidates.append(CandidateDesign(
            evaluation=evaluation,
            success_rate=database.success_rate(design.policy, scenario),
        ))
    return candidates
