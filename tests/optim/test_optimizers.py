"""Behavioural tests for the four multi-objective optimisers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.optim.annealing import SimulatedAnnealing
from repro.optim.base import CachingEvaluator, OptimizationResult
from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.genetic import NsgaII
from repro.optim.hypervolume import hypervolume
from repro.optim.random_search import RandomSearch
from repro.optim.space import DesignSpace, Dimension

ALL_OPTIMIZERS = [RandomSearch, SmsEgoBayesOpt, NsgaII, SimulatedAnnealing]
REFERENCE = [3.0, 3.0]


@pytest.fixture
def toy_space():
    return DesignSpace([
        Dimension("x", tuple(range(12))),
        Dimension("y", tuple(range(12))),
    ])


def toy_objectives(point):
    x = point["x"] / 11.0
    y = point["y"] / 11.0
    return [x ** 2 + 0.3 * y, (1 - x) ** 2 + 0.3 * (1 - y)]


class TestCommonBehaviour:
    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_budget_respected_exactly(self, toy_space, optimizer_cls):
        result = optimizer_cls(toy_space, seed=1).optimize(
            toy_objectives, budget=30, reference=REFERENCE)
        assert len(result.evaluations) == 30

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_no_duplicate_evaluations(self, toy_space, optimizer_cls):
        result = optimizer_cls(toy_space, seed=1).optimize(
            toy_objectives, budget=30)
        keys = [toy_space.key(e.assignment) for e in result.evaluations]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_deterministic_under_seed(self, toy_space, optimizer_cls):
        a = optimizer_cls(toy_space, seed=3).optimize(toy_objectives,
                                                      budget=20)
        b = optimizer_cls(toy_space, seed=3).optimize(toy_objectives,
                                                      budget=20)
        assert [toy_space.key(e.assignment) for e in a.evaluations] == \
            [toy_space.key(e.assignment) for e in b.evaluations]

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_finds_reasonable_front(self, toy_space, optimizer_cls):
        result = optimizer_cls(toy_space, seed=1).optimize(
            toy_objectives, budget=50, reference=REFERENCE)
        volume = result.final_hypervolume(REFERENCE)
        # Exhaustive best is ~8.3 on this toy problem; every optimiser
        # should recover a healthy fraction with 50/144 evaluations.
        assert volume > 7.0

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_budget_exceeding_space_terminates(self, optimizer_cls):
        tiny = DesignSpace([Dimension("x", (0, 1)), Dimension("y", (0, 1))])
        result = optimizer_cls(tiny, seed=1).optimize(toy_objectives,
                                                      budget=100)
        assert len(result.evaluations) == 4

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_front_volume_never_shrinks(self, toy_space, optimizer_cls):
        result = optimizer_cls(toy_space, seed=2).optimize(
            toy_objectives, budget=25, reference=REFERENCE)
        objectives = result.objective_matrix
        assert objectives.shape == (25, 2)
        volumes = [hypervolume(objectives[:k], REFERENCE)
                   for k in range(1, 26)]
        assert all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))
        assert volumes[-1] == result.final_hypervolume(REFERENCE)


class TestBayesOpt:
    def test_model_guided_beats_pure_random_here(self, toy_space):
        bo = SmsEgoBayesOpt(toy_space, seed=5).optimize(
            toy_objectives, budget=40, reference=REFERENCE)
        rs = RandomSearch(toy_space, seed=5).optimize(
            toy_objectives, budget=40, reference=REFERENCE)
        assert bo.final_hypervolume(REFERENCE) >= \
            rs.final_hypervolume(REFERENCE) - 0.05

    def test_invalid_config_rejected(self, toy_space):
        with pytest.raises(ConfigError):
            SmsEgoBayesOpt(toy_space, num_initial=1)
        with pytest.raises(ConfigError):
            SmsEgoBayesOpt(toy_space, pool_size=0)
        with pytest.raises(ConfigError):
            SmsEgoBayesOpt(toy_space, proposal_batch=0)


class TestProposalBatch:
    """q-point batched acquisition (kriging-believer inner loop)."""

    def test_mid_run_groups_submitted_as_full_batches(self, toy_space,
                                                      evaluated_groups):
        SmsEgoBayesOpt(toy_space, seed=2, num_initial=6,
                       proposal_batch=4).optimize(
            toy_objectives, budget=26, reference=REFERENCE)
        assert [len(g) for g in evaluated_groups] == [6, 4, 4, 4, 4, 4]

    def test_last_group_clamped_to_remaining_budget(self, toy_space,
                                                    evaluated_groups):
        result = SmsEgoBayesOpt(toy_space, seed=2, num_initial=6,
                                proposal_batch=4).optimize(
            toy_objectives, budget=24, reference=REFERENCE)
        assert [len(g) for g in evaluated_groups] == [6, 4, 4, 4, 4, 2]
        assert len(result.evaluations) == 24

    def test_group_members_are_distinct_unseen_points(self, toy_space):
        opt = SmsEgoBayesOpt(toy_space, seed=9, num_initial=6,
                             proposal_batch=4)
        evaluator = CachingEvaluator(toy_space, toy_objectives, budget=30,
                                     reference=REFERENCE)
        rng = np.random.default_rng(opt.seed)
        opt._initial_sampling(evaluator, rng)
        batch = opt._propose(evaluator, rng)
        assert len(batch) == 4
        keys = {toy_space.key(a) for a in batch}
        assert len(keys) == 4
        assert not any(evaluator.seen(a) for a in batch)

    def test_first_pick_matches_serial_argmax(self, toy_space):
        """The greedy loop's first pick is the plain SMS-EGO winner, so
        q>1 only adds points after the serial choice."""
        def first_pick(q):
            opt = SmsEgoBayesOpt(toy_space, seed=9, num_initial=6,
                                 proposal_batch=q)
            evaluator = CachingEvaluator(toy_space, toy_objectives,
                                         budget=30, reference=REFERENCE)
            rng = np.random.default_rng(opt.seed)
            opt._initial_sampling(evaluator, rng)
            return opt._propose(evaluator, rng)[0]
        assert toy_space.key(first_pick(1)) == toy_space.key(first_pick(4))

    @pytest.mark.parametrize("q", [2, 8])
    def test_budget_respected_exactly_with_batching(self, toy_space, q):
        result = SmsEgoBayesOpt(toy_space, seed=1, num_initial=6,
                                proposal_batch=q).optimize(
            toy_objectives, budget=29, reference=REFERENCE)
        assert len(result.evaluations) == 29
        keys = [toy_space.key(e.assignment) for e in result.evaluations]
        assert len(set(keys)) == len(keys)


class TestDegenerateReference:
    """Constant-objective histories must not collapse the reference."""

    def constant_second_objective(self, point):
        return [point["x"] / 11.0, 0.5]

    def test_reference_stays_clear_of_worst(self, toy_space):
        opt = SmsEgoBayesOpt(toy_space, seed=0)
        objectives = np.column_stack([np.linspace(0.1, 0.9, 6),
                                      np.full(6, 0.5)])
        reference = opt._reference_point(objectives)
        # The clip in _sms_ego_scores subtracts 1e-12; the margin on the
        # degenerate axis must survive it with room to spare.
        assert np.all(reference - objectives.max(axis=0) >= 1e-8)

    def test_improvement_scores_positive_on_degenerate_axis(self, toy_space):
        from repro.optim.pareto import non_dominated_mask
        opt = SmsEgoBayesOpt(toy_space, seed=0)
        objectives = np.array([[0.4, 0.5], [0.6, 0.5], [0.8, 0.5]])
        front = objectives[non_dominated_mask(objectives)]
        reference = opt._reference_point(objectives)
        lcb = np.array([[0.2, 0.5]])   # better on axis 0, ties on axis 1
        scores = opt._sms_ego_scores(lcb, front, reference)
        assert scores[0] > 1e-10

    def test_full_run_with_constant_objective_completes(self, toy_space):
        result = SmsEgoBayesOpt(toy_space, seed=4, num_initial=6).optimize(
            self.constant_second_objective, budget=20, reference=REFERENCE)
        assert len(result.evaluations) == 20
        keys = [toy_space.key(e.assignment) for e in result.evaluations]
        assert len(set(keys)) == len(keys)


class TestNsgaII:
    def test_invalid_config_rejected(self, toy_space):
        with pytest.raises(ConfigError):
            NsgaII(toy_space, population_size=2)
        with pytest.raises(ConfigError):
            NsgaII(toy_space, crossover_rate=1.5)
        with pytest.raises(ConfigError):
            NsgaII(toy_space, mutation_rate=-0.1)


class TestSimulatedAnnealing:
    def test_invalid_config_rejected(self, toy_space):
        with pytest.raises(ConfigError):
            SimulatedAnnealing(toy_space, initial_temperature=0.0)
        with pytest.raises(ConfigError):
            SimulatedAnnealing(toy_space, initial_temperature=0.1,
                               final_temperature=1.0)


class TestCachingEvaluator:
    def test_budget_enforced(self, toy_space):
        evaluator = CachingEvaluator(toy_space, toy_objectives, budget=2)
        evaluator.evaluate({"x": 0, "y": 0})
        evaluator.evaluate({"x": 1, "y": 0})
        with pytest.raises(ConfigError):
            evaluator.evaluate({"x": 2, "y": 0})

    def test_cached_reevaluation_free(self, toy_space):
        calls = []

        def counting(point):
            calls.append(point)
            return toy_objectives(point)

        evaluator = CachingEvaluator(toy_space, counting, budget=5)
        evaluator.evaluate({"x": 0, "y": 0})
        evaluator.evaluate({"x": 0, "y": 0})
        assert len(calls) == 1
        assert evaluator.evaluations_used == 1

    def test_rejects_nonvector_objectives(self, toy_space):
        evaluator = CachingEvaluator(toy_space, lambda p: [[1.0]], budget=5)
        with pytest.raises(ConfigError):
            evaluator.evaluate({"x": 0, "y": 0})

    def test_empty_result_properties(self):
        result = OptimizationResult()
        assert result.final_hypervolume([1.0]) == 0.0
