"""AutoPilot: automatic domain-specific SoC design for autonomous UAVs.

A full reproduction of the MICRO 2022 AutoPilot methodology, including
every substrate it depends on: the Fig. 2a policy template, a
SCALE-Sim-style systolic-array simulator, CACTI/Micron-style power
models, the DSSoC assembly with heatsink-weight feedback, an Air
Learning-style navigation simulator with a CEM trainer and a calibrated
success-rate surrogate, multi-objective optimisers (SMS-EGO Bayesian
optimisation, NSGA-II, simulated annealing, random search), the F-1
cyber-physical roofline, the Eq. 1-4 mission model and the baseline
onboard computers.

Quickstart::

    from repro import AutoPilot, RunConfig, TaskSpec, Scenario, NANO_ZHANG

    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    result = AutoPilot(RunConfig(seed=7, budget=80)).run(task)
    print(result.selected.candidate.design.describe())
    print(result.selected.mission.num_missions)
"""

from repro.airlearning import (
    SCENARIO_REGISTRY,
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    get_scenarios,
    resolve_scenario,
)
from repro.core import (
    AutoPilot,
    AutoPilotResult,
    BackEnd,
    CandidateDesign,
    FrontEnd,
    MultiObjectiveDse,
    Phase1Result,
    Phase2Result,
    Phase3Result,
    RankedDesign,
    RunConfig,
    TaskSpec,
    build_design_space,
)
from repro.nn import PolicyHyperparams, PolicyNetwork, build_policy_network
from repro.scalesim import AcceleratorConfig, Dataflow, SystolicArraySimulator
from repro.soc import DssocDesign, DssocEvaluation, evaluate_dssoc
from repro.uav import (
    ALL_PLATFORMS,
    ASCTEC_PELICAN,
    DJI_SPARK,
    NANO_ZHANG,
    F1Model,
    UavPlatform,
    evaluate_mission,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AutoPilot",
    "AutoPilotResult",
    "RunConfig",
    "TaskSpec",
    "Scenario",
    "ScenarioSpec",
    "SCENARIOS",
    "SCENARIO_REGISTRY",
    "get_scenarios",
    "resolve_scenario",
    "FrontEnd",
    "Phase1Result",
    "MultiObjectiveDse",
    "Phase2Result",
    "CandidateDesign",
    "BackEnd",
    "Phase3Result",
    "RankedDesign",
    "build_design_space",
    "PolicyHyperparams",
    "PolicyNetwork",
    "build_policy_network",
    "AcceleratorConfig",
    "Dataflow",
    "SystolicArraySimulator",
    "DssocDesign",
    "DssocEvaluation",
    "evaluate_dssoc",
    "UavPlatform",
    "ALL_PLATFORMS",
    "ASCTEC_PELICAN",
    "DJI_SPARK",
    "NANO_ZHANG",
    "F1Model",
    "evaluate_mission",
]
