"""AutoPilot core: task spec, the three phases, and the pipeline."""

from repro import _lazy_exports

_EXPORTS = {
    "TaskSpec": "spec",
    "RunConfig": "spec",
    "build_design_space": "spec",
    "assignment_to_design": "spec",
    "design_to_assignment": "spec",
    "FrontEnd": "phase1",
    "Phase1Result": "phase1",
    "MultiObjectiveDse": "phase2",
    "Phase2Result": "phase2",
    "CandidateDesign": "phase2",
    "BackEnd": "phase3",
    "Phase3Result": "phase3",
    "RankedDesign": "phase3",
    "AutoPilot": "pipeline",
    "AutoPilotResult": "pipeline",
    "render_report": "report",
    "filter_by_success": "strategies",
    "select_high_throughput": "strategies",
    "select_low_power": "strategies",
    "select_high_efficiency": "strategies",
    "TRADITIONAL_STRATEGIES": "strategies",
    "TABLE_VI": "taxonomy",
    "TaxonomyRow": "taxonomy",
    "render_table_vi": "taxonomy",
    "TABLE_I": "prior_work",
    "PriorWorkRow": "prior_work",
    "render_table_i": "prior_work",
    "export_candidates_csv": "export",
    "export_candidates_json": "export",
    "load_candidates_json": "export",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
