"""Runtime gates: each fast path must still beat the path it replaced.

Every gate times a mechanism against its reference in this process, on
one fixed workload, and asserts the ratio the mechanism exists for:
the vectorised Phase 1 engine, the shared-factor GP, q-point proposals,
multi-fidelity screening and checkpointing.  Their correctness halves
(bit-identity, cache reuse, resume equivalence) are tier-1 tests under
``tests/``; this module only times, so it stays out of tier-1.  It runs
with the paper-figure drivers::

    PYTHONPATH=src python -m pytest -q benchmarks/ --benchmark-disable

Each repetition starts on a cold shared cache, and the two sides of a
ratio alternate within a repetition so a drift in host speed hits both.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.airlearning.scenarios import Scenario
from repro.airlearning.trainer import CemTrainer
from repro.core.evalcache import reset_shared_cache
from repro.core.phase1 import FrontEnd
from repro.core.phase2 import MultiObjectiveDse
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.nn.template import PolicyHyperparams
from repro.optim.gp import GaussianProcess, MultiObjectiveGP
from repro.uav.platforms import NANO_ZHANG

TASK = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


def best_walls(reps, *runs):
    """Best-of-``reps`` wall seconds of each run, and each last result."""
    walls = [float("inf")] * len(runs)
    results = [None] * len(runs)
    for _ in range(reps):
        for index, run in enumerate(runs):
            reset_shared_cache()
            start = time.perf_counter()
            results[index] = run()
            walls[index] = min(walls[index], time.perf_counter() - start)
    reset_shared_cache()
    return walls, results


# ----------------------------------------------------------------------
# Phase 1: vectorised engine vs the scalar seed loop
# ----------------------------------------------------------------------
#: Two template points trained for one scenario over five passes, each
#: pass populating a fresh database.  Pipeline runs for several UAV
#: platforms share one database and train a scenario's points once; the
#: passes only repeat the work so that the timing is long enough to read.
SWEEP_POINTS = (PolicyHyperparams(2, 32), PolicyHyperparams(3, 32))
SWEEP_PASSES = 5


@pytest.fixture(scope="module")
def training_sweeps():
    """``{engine: (wall s, env steps, success rates per pass)}``: both
    engines train and validate every point on every pass."""
    sweeps = {}
    for engine in ("scalar", "vec"):
        trainer = CemTrainer(engine=engine, population_size=32,
                             iterations=2, episodes_per_candidate=3, seed=7)
        frontend = FrontEnd(backend="trainer", seed=7, trainer=trainer,
                            validation_episodes=12)

        def sweep():
            results = [frontend.run(TASK, hyperparams=list(SWEEP_POINTS))
                       for _ in range(SWEEP_PASSES)]
            rates = [[r.database.get(p, TASK.scenario).success_rate
                      for p in SWEEP_POINTS] for r in results]
            return sum(r.env_steps for r in results), rates

        (wall,), ((steps, rates),) = best_walls(1, sweep)
        sweeps[engine] = (wall, steps, rates)
    return sweeps


def test_phase1_vec_matches_scalar_success_rates(training_sweeps):
    assert training_sweeps["vec"][2] == training_sweeps["scalar"][2]


def test_phase1_vec_rollout_throughput_beats_scalar(training_sweeps):
    (scalar_s, scalar_steps, _), (vec_s, vec_steps, _) = (
        training_sweeps["scalar"], training_sweeps["vec"])
    assert vec_steps / vec_s > scalar_steps / scalar_s


# ----------------------------------------------------------------------
# Phase 2 hot loop: the shared-factor GP
# ----------------------------------------------------------------------
def test_shared_gp_proposal_loop_speedup_at_least_1_3x():
    """41 proposals (100..140 observations, 7 inputs, 3 objectives, a
    256-point pool): three per-objective refits per proposal vs one
    shared-factor refit per proposal.  A fit that stopped sharing its
    factors reads about 1.0x."""
    rng = np.random.default_rng(29)
    x = rng.integers(0, 9, size=(140, 7)) / 8.0
    y = rng.normal(size=(140, 3))
    pool = rng.integers(0, 9, size=(256, 7)) / 8.0

    def legacy():
        for n in range(100, 141):
            for j in range(3):
                GaussianProcess().fit(x[:n], y[:n, j]).predict(pool)

    def shared():
        for n in range(100, 141):
            MultiObjectiveGP().fit(x[:n], y[:n]).predict(pool)

    (legacy_s, shared_s), _ = best_walls(3, legacy, shared)
    assert legacy_s / shared_s >= 1.3


# ----------------------------------------------------------------------
# Phase 2 proposals: q-point groups and multi-fidelity screening
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def phase2_run():
    """``(make_run, reference)``: ``make_run(q, budget, **dse)`` is a
    full-space Phase 2 run on the dense nano task at seed 7."""
    database = FrontEnd(backend="surrogate", seed=0).run(TASK).database
    reset_shared_cache()
    reference = MultiObjectiveDse(database=database,
                                  seed=7).derive_reference()

    def make_run(q, budget=64, **dse_kwargs):
        return lambda: MultiObjectiveDse(
            database=database, seed=7,
            optimizer_kwargs={"num_initial": 12, "pool_size": 128,
                              "proposal_batch": q},
            **dse_kwargs).run(TASK, budget=budget, reference=reference)

    return make_run, reference


def hypervolume_per_s(walls, results, reference):
    return [r.optimization.final_hypervolume(reference) / wall
            for wall, r in zip(walls, results)]


def test_q8_hypervolume_per_second_beats_q1(phase2_run):
    make_run, reference = phase2_run
    q1, q8 = hypervolume_per_s(*best_walls(3, make_run(1), make_run(8)),
                               reference)
    assert q8 > q1


def test_multifidelity_hypervolume_per_second_at_least_2x(phase2_run):
    """The screen spends 24 simulator evaluations against the q=8
    single-fidelity baseline's 64."""
    make_run, reference = phase2_run
    plain, screened = hypervolume_per_s(*best_walls(
        3, make_run(8), make_run(8, budget=24, fidelity="on",
                                 promotion_eta=0.5)), reference)
    assert screened / plain >= 2.0


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
def test_checkpointing_overhead_within_5_percent(tmp_path):
    """Writing the run manifest at the start, on entering Phase 2 and
    at the end costs under 5% wall, or under 0.05 s absolute so a
    sub-second run does not flake on noise."""
    config = RunConfig(seed=7, budget=30)
    run_dirs = (tmp_path / f"run-{i}" for i in itertools.count())
    (plain_s, checkpoint_s), _ = best_walls(
        3, lambda: AutoPilot(config).run(TASK),
        lambda: AutoPilot(config).run(TASK, checkpoint_dir=next(run_dirs)))
    overhead_s = checkpoint_s - plain_s
    assert overhead_s <= 0.05 or overhead_s / plain_s <= 0.05
