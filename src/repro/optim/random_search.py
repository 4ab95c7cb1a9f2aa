"""Uniform random search baseline for the DSE ablation."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.optim.base import CachingEvaluator, Optimizer
from repro.optim.space import Assignment

#: Unseen points accumulated before one batched evaluation.
CHUNK_SIZE = 16


class RandomSearch(Optimizer):
    """Samples unseen points uniformly until the budget is spent.

    Point selection only depends on the RNG stream, never on objective
    values, so unseen points are accumulated into chunks and evaluated
    through :meth:`CachingEvaluator.evaluate_batch` -- the evaluated
    sequence is identical to the one-at-a-time seed behaviour.
    """

    name = "random"

    def run(self, evaluator: CachingEvaluator,
            rng: np.random.Generator) -> None:
        space_size = evaluator.space.size()
        misses = 0
        queued: List[Assignment] = []
        queued_keys = set()

        def flush() -> None:
            if queued:
                evaluator.evaluate_batch(queued)
                queued.clear()
                queued_keys.clear()

        while evaluator.evaluations_used + len(queued) < evaluator.budget:
            points, keys = evaluator.space.sample_block(rng, 1)
            point, key = points[0], keys[0]
            if key in queued_keys or evaluator.seen_key(key):
                misses += 1
                # The space may be smaller than the budget; bail out once
                # resampling stops finding new points.
                if misses > 50 * max(1, space_size):
                    break
                continue
            misses = 0
            queued_keys.add(key)
            queued.append(point)
            if len(queued) >= CHUNK_SIZE:
                flush()
        flush()
