"""Golden digest of the simulator, tier-0 and trainer numerics.

This test recomputes a fixed probe set -- per probe design a simulator
run report (the basis of every cached DSSoC evaluation) and a tier-0
bound estimate, plus a CEM training result -- and pins the digest of
its exact bits.  Any change to those computations fails it until the
digest is re-pinned, so a change of numerics is always deliberate.
"""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.airlearning.scenarios import Scenario
from repro.airlearning.trainer import CemTrainer
from repro.core import evalcache
from repro.core.evalcache import (
    EvalCache,
    estimate_key,
    workload_fingerprint,
)
from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import lower_network
from repro.scalesim.config import AcceleratorConfig, Dataflow
from repro.scalesim.simulator import SystolicArraySimulator
from repro.soc.dssoc import DssocDesign
from repro.soc.estimate import Tier0Estimator

#: Re-pin only when a cached computation is meant to change.
PINNED = "633cf9b9d833076576d7805a87d7a14684b1473864fe524e1f25f267c3191e0c"

PROBE_DESIGNS = (
    DssocDesign(policy=PolicyHyperparams(num_layers=2, num_filters=32),
                accelerator=AcceleratorConfig(
                    pe_rows=16, pe_cols=16, ifmap_sram_kb=64,
                    filter_sram_kb=64, ofmap_sram_kb=64)),
    DssocDesign(policy=PolicyHyperparams(num_layers=7, num_filters=48),
                accelerator=AcceleratorConfig(
                    pe_rows=32, pe_cols=128, ifmap_sram_kb=256,
                    filter_sram_kb=512, ofmap_sram_kb=128,
                    dataflow=Dataflow.OUTPUT_STATIONARY)),
    DssocDesign(policy=PolicyHyperparams(num_layers=10, num_filters=64),
                accelerator=AcceleratorConfig(
                    pe_rows=256, pe_cols=8, ifmap_sram_kb=32,
                    filter_sram_kb=4096, ofmap_sram_kb=1024,
                    dataflow=Dataflow.INPUT_STATIONARY, clock_hz=120e6)),
)


def canonical(value) -> str:
    """An exact text form: ``float.hex`` for every float, field names
    for every dataclass, dtype and shape for every array."""
    if dataclasses.is_dataclass(value):
        fields = ",".join(f"{f.name}={canonical(getattr(value, f.name))}"
                          for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        return (f"array[{value.dtype.str}{value.shape}]"
                + canonical(value.tolist()))
    if isinstance(value, (bool, str)) or value is None:
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


@pytest.fixture
def fresh_cache(monkeypatch):
    """A private, empty process-wide cache, so every probe value is
    computed here rather than served from an earlier test."""
    cache = EvalCache()
    monkeypatch.setattr(evalcache, "_shared_cache", cache)
    return cache


def probe_values(cache):
    """Per probe design its simulator report and its tier-0 estimate,
    the estimate read back from the cache it was stored in, then a
    training result."""
    values = []
    estimator = Tier0Estimator()
    estimator.estimate_designs(PROBE_DESIGNS)
    for design in PROBE_DESIGNS:
        workload = lower_network(build_policy_network(design.policy))
        fingerprint = workload_fingerprint(workload)
        simulator = SystolicArraySimulator(design.accelerator)
        values.append(simulator.run(workload))
        values.append(cache.get(estimate_key(None, design.accelerator,
                                             workload_fp=fingerprint)))
    trainer = CemTrainer(population_size=4, iterations=1,
                         episodes_per_candidate=1, seed=0)
    values.append(trainer.train(PolicyHyperparams(num_layers=2,
                                                  num_filters=32),
                                Scenario.LOW))
    assert all(value is not None for value in values)
    return values


def test_cached_values_match_the_pinned_digest(fresh_cache):
    text = canonical(probe_values(fresh_cache))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == PINNED, (
        "a simulator, tier-0 or trainer value changed: re-pin PINNED "
        "here only if the change is meant")
