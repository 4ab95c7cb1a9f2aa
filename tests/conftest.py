"""Shared fixtures: small design spaces and a session-scoped context.

Expensive pipeline runs are session-scoped and use small budgets so the
whole suite stays fast while still exercising the real code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.spec import TaskSpec
from repro.experiments.runner import ExperimentContext
from repro.nn.template import PolicyHyperparams
from repro.scalesim.config import AcceleratorConfig
from repro.soc.dssoc import DssocDesign
from repro.uav.platforms import NANO_ZHANG


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_policy():
    """A small template point."""
    return PolicyHyperparams(num_layers=2, num_filters=32)


@pytest.fixture
def medium_policy():
    """The dense-scenario winning template."""
    return PolicyHyperparams(num_layers=7, num_filters=48)


@pytest.fixture
def small_accelerator():
    """A small accelerator config."""
    return AcceleratorConfig(pe_rows=16, pe_cols=16, ifmap_sram_kb=64,
                             filter_sram_kb=64, ofmap_sram_kb=64)


@pytest.fixture
def small_design(small_policy, small_accelerator):
    """A small DSSoC design point."""
    return DssocDesign(policy=small_policy, accelerator=small_accelerator)


@pytest.fixture
def nano_task():
    """The deep-dive task: nano-UAV, dense obstacles."""
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


@pytest.fixture(scope="session")
def shared_context():
    """A session-scoped experiment context with a small budget.

    All experiment and integration tests share this context so the
    Phase 1/2 work happens once per test session.
    """
    return ExperimentContext(budget=60, seed=7)
