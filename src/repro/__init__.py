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

Package imports are lazy: ``import repro`` loads no submodule, and every
package imports a public name's defining submodule the first time the
name is looked up, so each command loads only what it calls.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """``(__getattr__, __dir__, __all__)`` of a package with lazy exports.

    ``exports`` maps each public name to the submodule of ``package``
    that defines it, and is the package's one list of its exports.  The
    PEP 562 ``__getattr__`` imports that submodule when the name is
    first looked up and binds the value on the package, so a second
    lookup returns the same object without a call.  A name that is also
    its submodule's name is bound at once: the import system would
    otherwise bind the submodule over it when the submodule loads.
    """
    def __getattr__(name):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{exports[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    for name, submodule in exports.items():
        if name == submodule:
            __getattr__(name)
    return __getattr__, __dir__, list(exports)


_EXPORTS = {
    "AutoPilot": "core.pipeline",
    "AutoPilotResult": "core.pipeline",
    "RunConfig": "core.spec",
    "TaskSpec": "core.spec",
    "build_design_space": "core.spec",
    "FrontEnd": "core.phase1",
    "Phase1Result": "core.phase1",
    "MultiObjectiveDse": "core.phase2",
    "Phase2Result": "core.phase2",
    "CandidateDesign": "core.phase2",
    "BackEnd": "core.phase3",
    "Phase3Result": "core.phase3",
    "RankedDesign": "core.phase3",
    "Scenario": "airlearning.scenarios",
    "ScenarioSpec": "airlearning.scenarios",
    "SCENARIOS": "airlearning.scenarios",
    "SCENARIO_REGISTRY": "airlearning.scenarios",
    "get_scenarios": "airlearning.scenarios",
    "resolve_scenario": "airlearning.scenarios",
    "PolicyHyperparams": "nn.template",
    "PolicyNetwork": "nn.template",
    "build_policy_network": "nn.template",
    "AcceleratorConfig": "scalesim.config",
    "Dataflow": "scalesim.config",
    "SystolicArraySimulator": "scalesim.simulator",
    "DssocDesign": "soc.dssoc",
    "DssocEvaluation": "soc.dssoc",
    "evaluate_dssoc": "soc.dssoc",
    "UavPlatform": "uav.platforms",
    "ALL_PLATFORMS": "uav.platforms",
    "ASCTEC_PELICAN": "uav.platforms",
    "DJI_SPARK": "uav.platforms",
    "NANO_ZHANG": "uav.platforms",
    "F1Model": "uav.f1_model",
    "evaluate_mission": "uav.mission",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "__version__")
