"""Task specification, run configuration and the joint design space.

The user-facing entry point of AutoPilot is a high-level task
specification: the autonomy task (deployment scenario), the target UAV,
the sensor rate, and quality knobs.  A :class:`RunConfig` holds the
rest of a run's identity (seed, budget, Phase 1 and Phase 2 options).
Phase 2 searches the joint NN x hardware space (Table II) declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.nn.template import FILTER_CHOICES, LAYER_CHOICES, PolicyHyperparams
from repro.airlearning.scenarios import Scenario
from repro.optim.space import Assignment, DesignSpace, Dimension
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)
from repro.soc.dssoc import DssocDesign
from repro.uav.platforms import UavPlatform


@dataclass(frozen=True)
class TaskSpec:
    """High-level specification handed to AutoPilot (Fig. 1, left).

    Attributes:
        platform: The target base UAV (Table IV).
        scenario: Deployment scenario / obstacle density.
        sensor_fps: Camera frame rate (30/60 per Table IV).
        min_success_rate: Minimum acceptable validated success rate; 0
            keeps every validated policy eligible.
        success_tolerance: Phase 3 keeps candidates within this much of
            the best available success rate for the scenario.
        max_latency_s: Optional hard real-time bound on single-inference
            latency (Section III-A's "real-time latency constraints");
            None disables the filter.
    """

    platform: UavPlatform
    scenario: Scenario
    sensor_fps: float = 60.0
    min_success_rate: float = 0.0
    success_tolerance: float = 0.02
    max_latency_s: float | None = None

    def __post_init__(self) -> None:
        if self.sensor_fps <= 0:
            raise ConfigError("sensor_fps must be positive")
        if not 0.0 <= self.min_success_rate <= 1.0:
            raise ConfigError("min_success_rate must be in [0, 1]")
        if self.success_tolerance < 0:
            raise ConfigError("success_tolerance must be non-negative")
        if self.max_latency_s is not None and self.max_latency_s <= 0:
            raise ConfigError("max_latency_s must be positive when set")


@dataclass(frozen=True)
class RunConfig:
    """Every input that shapes a pipeline's output apart from the task.

    One run has exactly one config: the CLI builds it, :class:`AutoPilot`
    takes it, and both checkpoint manifests record its fields, so a
    resume under any different value is refused.  The worker count is
    not part of it because it never changes the output.

    Attributes:
        seed: Seeds Phase 1 (surrogate or trainer) and the optimiser.
        budget: Phase 2 evaluation budget.
        frontend_backend: Phase 1 backend, ``"surrogate"`` or
            ``"trainer"`` (the CEM trainer on the simulator).
        trainer: The CEM trainer's
            :meth:`~repro.airlearning.trainer.CemTrainer.settings` for
            the trainer backend, with settings left out filled in from
            the trainer's defaults; ``None`` for the surrogate.
            The rollout engine is not among them: the engines are
            bit-equivalent, and an ``engine`` key that older manifests
            record is accepted and dropped.
        proposal_batch: SMS-EGO candidates proposed per GP fit (q).
        fidelity: Multi-fidelity Phase 2 screening, ``"off"``/``"on"``.
        promotion_eta: Fraction of a screened group promoted to the
            exact simulator, in ``(0, 1]``; checked with fidelity off
            too.
    """

    seed: int
    budget: int
    frontend_backend: str = "surrogate"
    trainer: Optional[Dict[str, Any]] = None
    proposal_batch: int = 1
    fidelity: str = "off"
    promotion_eta: float = 0.5

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigError(f"budget must be positive, got {self.budget!r}")
        if self.proposal_batch < 1:
            raise ConfigError("proposal_batch must be at least 1, got "
                              f"{self.proposal_batch!r}")
        if not 0.0 < self.promotion_eta <= 1.0:
            raise ConfigError("promotion_eta must be in (0, 1], got "
                              f"{self.promotion_eta!r}")
        if self.fidelity not in ("off", "on"):
            raise ConfigError(
                f"fidelity must be 'off' or 'on', got {self.fidelity!r}")
        if self.frontend_backend == "trainer":
            from repro.airlearning.trainer import CemTrainer
            trainer = CemTrainer.from_settings(self.trainer or {})
            object.__setattr__(self, "trainer", trainer.settings())
        elif self.frontend_backend != "surrogate":
            raise ConfigError("frontend_backend must be 'surrogate' or "
                              f"'trainer', got {self.frontend_backend!r}")
        elif self.trainer is not None:
            raise ConfigError("trainer settings need "
                              "frontend_backend='trainer'")


def build_design_space(layer_choices=LAYER_CHOICES,
                       filter_choices=FILTER_CHOICES,
                       pe_choices=PE_DIM_CHOICES,
                       sram_choices=SRAM_KB_CHOICES) -> DesignSpace:
    """The joint Table II design space as a :class:`DesignSpace`."""
    return DesignSpace([
        Dimension("num_layers", tuple(layer_choices)),
        Dimension("num_filters", tuple(filter_choices)),
        Dimension("pe_rows", tuple(pe_choices)),
        Dimension("pe_cols", tuple(pe_choices)),
        Dimension("ifmap_sram_kb", tuple(sram_choices)),
        Dimension("filter_sram_kb", tuple(sram_choices)),
        Dimension("ofmap_sram_kb", tuple(sram_choices)),
    ])


def assignment_to_design(assignment: Assignment,
                         dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY,
                         clock_hz: float = 200e6) -> DssocDesign:
    """Materialise a design point from an optimiser assignment."""
    policy = PolicyHyperparams(
        num_layers=int(assignment["num_layers"]),
        num_filters=int(assignment["num_filters"]),
    )
    accelerator = AcceleratorConfig(
        pe_rows=int(assignment["pe_rows"]),
        pe_cols=int(assignment["pe_cols"]),
        ifmap_sram_kb=int(assignment["ifmap_sram_kb"]),
        filter_sram_kb=int(assignment["filter_sram_kb"]),
        ofmap_sram_kb=int(assignment["ofmap_sram_kb"]),
        dataflow=dataflow,
        clock_hz=clock_hz,
    )
    return DssocDesign(policy=policy, accelerator=accelerator)


def design_to_assignment(design: DssocDesign) -> Assignment:
    """Inverse of :func:`assignment_to_design`."""
    return {
        "num_layers": design.policy.num_layers,
        "num_filters": design.policy.num_filters,
        "pe_rows": design.accelerator.pe_rows,
        "pe_cols": design.accelerator.pe_cols,
        "ifmap_sram_kb": design.accelerator.ifmap_sram_kb,
        "filter_sram_kb": design.accelerator.filter_sram_kb,
        "ofmap_sram_kb": design.accelerator.ofmap_sram_kb,
    }
