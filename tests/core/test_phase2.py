"""Unit tests for the Phase 2 multi-objective DSE."""

import sys

import numpy as np
import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import reset_shared_cache
from repro.core.phase1 import FrontEnd
from repro.core.phase2 import CandidateDesign, MultiObjectiveDse
from repro.core.spec import TaskSpec, assignment_to_design, build_design_space
from repro.errors import ConfigError
from repro.optim.hypervolume import hypervolume
from repro.optim.random_search import RandomSearch
from repro.perf import span
from repro.uav.platforms import NANO_ZHANG
from tests.optim.legacy_sms_ego import LegacySerialSmsEgo


@pytest.fixture(scope="module")
def task():
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


@pytest.fixture(scope="module")
def database(task):
    return FrontEnd(backend="surrogate", seed=0).run(task).database


@pytest.fixture(scope="module")
def small_space():
    return build_design_space(layer_choices=(4, 7), filter_choices=(32, 48),
                              pe_choices=(16, 32, 64),
                              sram_choices=(64, 256))


@pytest.fixture(scope="module")
def dse_result(database, task, small_space):
    dse = MultiObjectiveDse(database=database, space=small_space, seed=1)
    return dse.run(task, budget=25)


class TestPhase2:
    def test_candidate_per_evaluation(self, dse_result):
        assert len(dse_result.candidates) == 25

    def test_objectives_vector_shape_and_signs(self, dse_result):
        for candidate in dse_result.candidates:
            objectives = candidate.objectives
            assert objectives.shape == (3,)
            assert 0.0 <= objectives[0] <= 1.0  # 1 - success
            assert objectives[1] > 0.0  # latency
            assert objectives[2] > 0.0  # power

    def test_pareto_candidates_nonempty_subset(self, dse_result):
        pareto = dse_result.pareto_candidates()
        assert 0 < len(pareto) <= len(dse_result.candidates)

    def test_pareto_candidates_mutually_nondominated(self, dse_result):
        from repro.optim.pareto import dominates
        pareto = dse_result.pareto_candidates()
        for a in pareto:
            for b in pareto:
                assert not dominates(a.objectives, b.objectives)

    def test_candidate_metrics_consistent(self, dse_result):
        for candidate in dse_result.candidates[:5]:
            assert candidate.frames_per_second == pytest.approx(
                1.0 / candidate.evaluation.latency_seconds)
            assert candidate.soc_power_w == \
                candidate.evaluation.soc_power_w

    def test_success_rates_come_from_database(self, dse_result, database,
                                              task):
        for candidate in dse_result.candidates[:5]:
            assert candidate.success_rate == database.success_rate(
                candidate.design.policy, task.scenario)

    def test_optimization_record_attached(self, dse_result):
        assert dse_result.optimization is not None
        assert len(dse_result.optimization.evaluations) == 25

    def test_pluggable_optimizer(self, database, task, small_space):
        dse = MultiObjectiveDse(database=database, space=small_space,
                                optimizer_cls=RandomSearch, seed=2)
        result = dse.run(task, budget=10)
        assert len(result.candidates) == 10

    def test_rejects_nonpositive_budget(self, database, task, small_space):
        dse = MultiObjectiveDse(database=database, space=small_space)
        with pytest.raises(ConfigError):
            dse.run(task, budget=0)

    def test_rejects_unknown_fidelity(self, database):
        with pytest.raises(ConfigError, match="fidelity must be"):
            MultiObjectiveDse(database, fidelity="maybe")

    @pytest.mark.parametrize("eta", [0.0, 1.5])
    def test_rejects_promotion_eta_outside_unit_interval(self, database,
                                                         eta):
        with pytest.raises(ConfigError, match="promotion_eta"):
            MultiObjectiveDse(database, fidelity="on", promotion_eta=eta)

    def test_evaluate_design_explicit_point(self, database, task):
        dse = MultiObjectiveDse(database=database)
        design = assignment_to_design({
            "num_layers": 7, "num_filters": 48, "pe_rows": 32,
            "pe_cols": 32, "ifmap_sram_kb": 64, "filter_sram_kb": 64,
            "ofmap_sram_kb": 64,
        })
        candidate = dse.evaluate_design(design, task)
        assert candidate.frames_per_second > 0
        assert candidate.success_rate == database.success_rate(
            design.policy, task.scenario)

    def test_candidate_design_is_its_evaluations_design(self, dse_result):
        for candidate in dse_result.candidates:
            assert candidate.design is candidate.evaluation.design
        candidate = dse_result.candidates[0]
        with pytest.raises(AttributeError):
            candidate.design = candidate.evaluation.design
        with pytest.raises(TypeError):
            CandidateDesign(design=candidate.design,
                            evaluation=candidate.evaluation,
                            success_rate=candidate.success_rate)

    def test_objective_diversity(self, dse_result):
        # The search space spans meaningfully different designs.
        powers = np.array([c.soc_power_w for c in dse_result.candidates])
        assert powers.max() > 2 * powers.min()


class TestDerivedReference:
    """The hypervolume reference must enclose the whole design space.

    The seed hard-coded ``[1.0, 1.0, 50.0]``, silently zeroing the
    contribution of every candidate above 50 W -- which the big Table II
    arrays exceed easily -- and flattening the hypervolume trace.
    """

    @pytest.fixture(scope="class")
    def big_space(self):
        # Includes 1024x1024 arrays whose SoC power blows far past the
        # old hard-coded 50 W reference.
        return build_design_space(layer_choices=(4, 7),
                                  filter_choices=(32, 48),
                                  pe_choices=(16, 1024),
                                  sram_choices=(64, 2048))

    @pytest.fixture(scope="class")
    def big_result(self, database, task, big_space):
        dse = MultiObjectiveDse(database=database, space=big_space, seed=4)
        return dse.run(task, budget=16)

    def test_space_exceeds_old_power_reference(self, big_result):
        powers = [c.soc_power_w for c in big_result.candidates]
        assert max(powers) > 50.0

    def test_every_candidate_inside_reference(self, big_result):
        assert big_result.reference is not None
        for candidate in big_result.candidates:
            assert np.all(candidate.objectives < big_result.reference)

    def test_hypervolume_reflects_out_of_old_reference_candidates(
            self, big_result):
        assert big_result.optimization.final_hypervolume(
            big_result.reference) > 0.0

    def test_reference_derivation_uses_corner_designs(self, database,
                                                      big_space):
        dse = MultiObjectiveDse(database=database, space=big_space)
        reference = dse.derive_reference()
        assert reference[0] == pytest.approx(1.05)
        assert reference[1] > 0.0
        assert reference[2] > 50.0  # the old hard-coded power bound

    def test_explicit_reference_override_respected(self, database, task,
                                                   small_space):
        dse = MultiObjectiveDse(database=database, space=small_space, seed=6)
        result = dse.run(task, budget=6, reference=[2.0, 10.0, 500.0])
        np.testing.assert_array_equal(result.reference,
                                      [2.0, 10.0, 500.0])


# ----------------------------------------------------------------------
# The full-space runs that ``benchmarks/test_runtime_gates.py`` times
# ----------------------------------------------------------------------
RUN_SEED = 7
RUN_BUDGET = 64
#: Tier-1 budget of the multi-fidelity run: the screen reaches the
#: saturated front on about a third of the simulator spend.
SCREENED_BUDGET = 24


@pytest.fixture(scope="module")
def full_reference(database):
    reset_shared_cache()
    return MultiObjectiveDse(database=database,
                             seed=RUN_SEED).derive_reference()


def run_full_space(database, task, reference, *, proposal_batch,
                   budget=RUN_BUDGET, **dse_kwargs):
    """One cold-cache Phase 2 run over the full design space."""
    reset_shared_cache()
    dse = MultiObjectiveDse(
        database=database, seed=RUN_SEED,
        optimizer_kwargs={"num_initial": 12, "pool_size": 128,
                          "proposal_batch": proposal_batch},
        **dse_kwargs)
    return dse.run(task, budget=budget, reference=reference)


def assert_histories_identical(a, b):
    assert [e.assignment for e in a.evaluations] == \
        [e.assignment for e in b.evaluations]
    np.testing.assert_array_equal(a.objective_matrix, b.objective_matrix)


@pytest.fixture(scope="module")
def q8_run(database, task, full_reference):
    """The q=8 single-fidelity run and its span."""
    with span("phase2") as phase:
        result = run_full_space(database, task, full_reference,
                                proposal_batch=8)
    return result, phase


class TestProposalBatch:
    def test_q1_matches_the_legacy_serial_loop(self, database, task,
                                               full_reference):
        oracle = run_full_space(database, task, full_reference,
                                proposal_batch=1,
                                optimizer_cls=LegacySerialSmsEgo)
        q1 = run_full_space(database, task, full_reference,
                            proposal_batch=1)
        assert_histories_identical(oracle.optimization, q1.optimization)

    def test_q8_mean_mid_run_batch_at_least_four(self, q8_run):
        _, phase = q8_run
        assert (phase.total("proposal.points")
                / phase.total("proposal.groups")) >= 4.0


class TestMultiFidelityRun:
    @pytest.fixture(scope="class")
    def screened(self, database, task, full_reference):
        """The fidelity-on run and its span."""
        with span("phase2") as phase:
            result = run_full_space(database, task, full_reference,
                                    proposal_batch=8, budget=SCREENED_BUDGET,
                                    fidelity="on", promotion_eta=0.5)
        return result, phase

    def test_fidelity_off_matches_the_plain_optimiser(
            self, database, task, full_reference, q8_run):
        off = run_full_space(database, task, full_reference,
                             proposal_batch=8, fidelity="off",
                             promotion_eta=0.5)
        assert_histories_identical(q8_run[0].optimization, off.optimization)

    def test_screened_run_keeps_98_percent_of_the_hypervolume(
            self, full_reference, q8_run, screened):
        plain = q8_run[0].optimization.final_hypervolume(full_reference)
        mf = screened[0].optimization.final_hypervolume(full_reference)
        assert mf / plain >= 0.98

    def test_screen_prunes_points(self, screened):
        _, phase = screened
        points = phase.total("fidelity.screened")
        assert points > 0
        assert points - phase.total("fidelity.promoted") > 0  # pruned


class TestNoRunningHypervolume:
    """A run computes no hypervolume of the whole front: SMS-EGO and the
    screen score candidates by exclusive contribution, and the front's
    volume is computed only when a caller asks for it."""

    @pytest.mark.parametrize("proposal_batch, dse_kwargs", [
        (1, {}),
        (8, {}),
        (4, {"fidelity": "on", "promotion_eta": 0.5}),
    ], ids=["q1", "q8", "q4-fidelity"])
    def test_run_calls_hypervolume_zero_times(
            self, monkeypatch, database, task, full_reference,
            proposal_batch, dse_kwargs):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return hypervolume(*args, **kwargs)

        # Every module that bound the function at import time.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and \
                    vars(module).get("hypervolume") is hypervolume:
                monkeypatch.setattr(module, "hypervolume", spy)
        result = run_full_space(database, task, full_reference,
                                proposal_batch=proposal_batch,
                                budget=SCREENED_BUDGET, **dse_kwargs)
        assert len(result.candidates) == SCREENED_BUDGET
        assert calls == []
