"""The serial SMS-EGO proposal loop before batching, index-row pools and
the incremental history, frozen as a correctness oracle.

Every proposal draws its pool as assignment dicts, one block at a time
(the block draw and the dict building are copied here, not called), and
filters it by key.  It then encodes the whole pool and the whole history
with ``encode_many``, stacks the full objective matrix and takes the
front of the whole history.  Only the warm-up, the reference point and
the SMS-EGO scores come from :class:`SmsEgoBayesOpt`.
"""

import numpy as np

from repro.optim.bayesopt import SmsEgoBayesOpt
from repro.optim.gp import MultiObjectiveGP
from repro.optim.pareto import non_dominated_mask


def legacy_sample_block(space, rng, count):
    """``count`` uniform points as assignment dicts plus their keys."""
    if count <= 0:
        return [], []
    value_counts = np.array([len(dim.values) for dim in space.dimensions])
    draws = rng.integers(value_counts, size=(count, space.num_dimensions))
    columns = [[dim.values[index] for index in column]
               for dim, column in zip(space.dimensions, draws.T.tolist())]
    keys = list(zip(*columns))
    names = [dim.name for dim in space.dimensions]
    return [dict(zip(names, key)) for key in keys], keys


def legacy_candidate_pool(pool_size, evaluator, rng):
    """Up to ``pool_size`` unseen points as dicts, in draw order."""
    pool = []
    seen_keys = set()
    attempts = 0
    attempt_limit = 20 * pool_size
    while len(pool) < pool_size and attempts < attempt_limit:
        block = min(pool_size - len(pool), attempt_limit - attempts)
        points, keys = legacy_sample_block(evaluator.space, rng, block)
        attempts += block
        for point, key in zip(points, keys):
            if key in seen_keys or evaluator.seen_key(key):
                continue
            seen_keys.add(key)
            pool.append(point)
    return pool


class LegacySerialSmsEgo(SmsEgoBayesOpt):
    """One candidate per GP fit via the plain SMS-EGO argmax, every
    proposal re-reading the whole history.  ``SmsEgoBayesOpt`` with
    q=1 must match it bit for bit."""

    def run(self, evaluator, rng):
        self._initial_sampling(evaluator, rng)
        while not evaluator.exhausted:
            pool = legacy_candidate_pool(self.pool_size, evaluator, rng)
            if not pool:
                break
            history = evaluator.result.evaluations
            x_train = evaluator.space.encode_many(
                [e.assignment for e in history])
            objectives = np.vstack([e.objectives for e in history])
            x_pool = evaluator.space.encode_many(pool)
            gp = MultiObjectiveGP().fit(x_train, objectives)
            means, stds = gp.predict(x_pool)
            lcb = means - self.kappa * stds
            front = objectives[non_dominated_mask(objectives)]
            reference = self._reference_point(objectives)
            scores = self._sms_ego_scores(lcb, front, reference)
            evaluator.evaluate(pool[int(np.argmax(scores))])
