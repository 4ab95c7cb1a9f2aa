"""Fixtures shared by the optimiser tests."""

import pytest

from repro.optim.base import CachingEvaluator


@pytest.fixture
def evaluated_groups(monkeypatch):
    """Every group passed to ``CachingEvaluator.evaluate_batch``, in call
    order, each as a list of assignment dicts."""
    groups = []
    original = CachingEvaluator.evaluate_batch

    def spy(self, assignments):
        groups.append([dict(a) for a in assignments])
        return original(self, assignments)

    monkeypatch.setattr(CachingEvaluator, "evaluate_batch", spy)
    return groups
