"""Seed-determinism and journal-replay tests for every optimiser.

Bit-identical resume rests on one property: an optimiser is a pure
function of its seed and the observed objective values.  These tests
pin that property for the whole registry -- full histories (assignments
*and* float objective vectors *and* hypervolume traces) must be
bit-identical across same-seed runs -- and replay a journal kept inside
the objective function, the way Phase 2 checkpoints.
"""

import numpy as np
import pytest

from repro.optim import (
    ExhaustiveSearch,
    NsgaII,
    RandomSearch,
    ReinforceSearch,
    SimulatedAnnealing,
    SmsEgoBayesOpt,
)
from repro.optim.space import DesignSpace, Dimension

#: Every optimiser the package exports.
ALL_OPTIMIZERS = [RandomSearch, SmsEgoBayesOpt, NsgaII, SimulatedAnnealing,
                  ReinforceSearch, ExhaustiveSearch]
REFERENCE = [3.0, 3.0]


@pytest.fixture
def toy_space():
    return DesignSpace([
        Dimension("x", tuple(range(10))),
        Dimension("y", tuple(range(10))),
    ])


def toy_objectives(point):
    x = point["x"] / 9.0
    y = point["y"] / 9.0
    return [x ** 2 + 0.3 * y, (1 - x) ** 2 + 0.3 * (1 - y)]


class TestSeedDeterminism:
    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_full_history_bit_identical_across_runs(self, toy_space,
                                                    optimizer_cls):
        def run():
            return optimizer_cls(toy_space, seed=13).optimize(
                toy_objectives, budget=24, reference=REFERENCE)
        a, b = run(), run()
        assert [e.assignment for e in a.evaluations] == \
            [e.assignment for e in b.evaluations]
        np.testing.assert_array_equal(a.objective_matrix,
                                      b.objective_matrix)

    @pytest.mark.parametrize("optimizer_cls", ALL_OPTIMIZERS)
    def test_different_seeds_are_independent_runs(self, toy_space,
                                                  optimizer_cls):
        if optimizer_cls is ExhaustiveSearch:
            pytest.skip("exhaustive enumeration ignores the seed")
        a = optimizer_cls(toy_space, seed=1).optimize(toy_objectives,
                                                      budget=24)
        b = optimizer_cls(toy_space, seed=2).optimize(toy_objectives,
                                                      budget=24)
        assert [e.assignment for e in a.evaluations] != \
            [e.assignment for e in b.evaluations]


class TestObserverHook:
    """Journalling through the objective function: every fresh
    evaluation calls it once, in history order."""

    @pytest.mark.parametrize("proposal_batch", [1, 4])
    def test_replaying_observed_values_reproduces_the_run(self, toy_space,
                                                          proposal_batch):
        """The resume contract, in miniature: re-running the optimiser
        while serving journalled values in order reconstructs the exact
        history without consulting the real objective.  With
        ``proposal_batch > 1`` this also pins that replay reconstructs
        the same q-point groups bit-identically."""
        journal = []

        def journalled(assignment):
            objectives = toy_objectives(assignment)
            journal.append((dict(assignment), objectives))
            return objectives

        baseline = SmsEgoBayesOpt(
            toy_space, seed=5, num_initial=4,
            proposal_batch=proposal_batch).optimize(
            journalled, budget=16, reference=REFERENCE)

        cursor = iter(journal)

        def replayed(assignment):
            recorded_assignment, objectives = next(cursor)
            assert recorded_assignment == dict(assignment)
            return objectives

        replay = SmsEgoBayesOpt(
            toy_space, seed=5, num_initial=4,
            proposal_batch=proposal_batch).optimize(
            replayed, budget=16, reference=REFERENCE)
        assert [e.assignment for e in replay.evaluations] == \
            [e.assignment for e in baseline.evaluations]
        np.testing.assert_array_equal(replay.objective_matrix,
                                      baseline.objective_matrix)


class TestProposalBatchDeterminism:
    """q>1 runs obey the same purity contract as serial runs."""

    @pytest.mark.parametrize("proposal_batch", [2, 4])
    def test_qbatch_history_bit_identical_across_runs(self, toy_space,
                                                      proposal_batch):
        def run():
            return SmsEgoBayesOpt(
                toy_space, seed=13, num_initial=4,
                proposal_batch=proposal_batch).optimize(
                toy_objectives, budget=24, reference=REFERENCE)
        a, b = run(), run()
        assert [e.assignment for e in a.evaluations] == \
            [e.assignment for e in b.evaluations]
        np.testing.assert_array_equal(a.objective_matrix,
                                      b.objective_matrix)

    def test_batched_replay_reconstructs_group_boundaries(
            self, toy_space, evaluated_groups):
        """Replaying a journal (the phase 2 resume path) re-issues the
        exact same q-groups: every replayed group must line up with the
        recorded group sizes and contents."""
        def make():
            return SmsEgoBayesOpt(toy_space, seed=8, num_initial=4,
                                  proposal_batch=4)

        baseline = make().optimize(toy_objectives, budget=20,
                                   reference=REFERENCE)
        recorded_groups = list(evaluated_groups)
        del evaluated_groups[:]

        cursor = iter([e for group in recorded_groups for e in group])

        def replayed(assignment):
            recorded = next(cursor)
            assert recorded == dict(assignment)
            return toy_objectives(assignment)

        replay = make().optimize(replayed, budget=20, reference=REFERENCE)
        assert evaluated_groups == recorded_groups
        np.testing.assert_array_equal(replay.objective_matrix,
                                      baseline.objective_matrix)
