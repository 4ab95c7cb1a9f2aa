"""AutoPilot core: task spec, the three phases, and the pipeline."""

from repro.core.export import (
    export_candidates_csv,
    export_candidates_json,
    load_candidates_json,
)
from repro.core.phase1 import FrontEnd, Phase1Result
from repro.core.phase2 import CandidateDesign, MultiObjectiveDse, Phase2Result
from repro.core.phase3 import BackEnd, Phase3Result, RankedDesign
from repro.core.pipeline import AutoPilot, AutoPilotResult
from repro.core.prior_work import TABLE_I, PriorWorkRow, render_table_i
from repro.core.report import render_report
from repro.core.spec import (
    RunConfig,
    TaskSpec,
    assignment_to_design,
    build_design_space,
    design_to_assignment,
)
from repro.core.strategies import (
    TRADITIONAL_STRATEGIES,
    filter_by_success,
    select_high_efficiency,
    select_high_throughput,
    select_low_power,
)
from repro.core.taxonomy import TABLE_VI, TaxonomyRow, render_table_vi

__all__ = [
    "TaskSpec",
    "RunConfig",
    "build_design_space",
    "assignment_to_design",
    "design_to_assignment",
    "FrontEnd",
    "Phase1Result",
    "MultiObjectiveDse",
    "Phase2Result",
    "CandidateDesign",
    "BackEnd",
    "Phase3Result",
    "RankedDesign",
    "AutoPilot",
    "AutoPilotResult",
    "render_report",
    "filter_by_success",
    "select_high_throughput",
    "select_low_power",
    "select_high_efficiency",
    "TRADITIONAL_STRATEGIES",
    "TABLE_VI",
    "TaxonomyRow",
    "render_table_vi",
    "TABLE_I",
    "PriorWorkRow",
    "render_table_i",
    "export_candidates_csv",
    "export_candidates_json",
    "load_candidates_json",
]
