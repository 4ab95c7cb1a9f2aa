"""Exhaustive enumeration (ground truth for small design spaces).

The paper's premise is that the full Table II space is far too large to
enumerate at simulator cost; on *restricted* sub-spaces, exhaustive
search provides the exact Pareto front against which the sample-
efficient optimisers are validated (the convergence claim of
Section III-B).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.optim.base import CachingEvaluator, Optimizer

#: Points handed to :meth:`CachingEvaluator.evaluate_batch` at a time.
CHUNK_SIZE = 64


class ExhaustiveSearch(Optimizer):
    """Evaluates every point of the space (bounded by the budget)."""

    name = "exhaustive"

    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        points = evaluator.space.all_points()
        while not evaluator.exhausted:
            chunk = list(itertools.islice(points, CHUNK_SIZE))
            if not chunk:
                break
            evaluator.evaluate_batch(chunk)
