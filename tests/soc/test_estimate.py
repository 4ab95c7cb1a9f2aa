"""Tier-0 SoC floors: latency/power/weight must bound the exact
evaluator from below in both frame modes, and the tier-0 cache keys
must never alias the tier-1 evaluation keys.
"""

import numpy as np
import pytest

from repro.core.evalcache import (
    estimate_key,
    evaluation_key,
    reset_shared_cache,
    shared_report_cache,
    workload_fingerprint,
)
from repro.nn.template import PolicyHyperparams
from repro.nn.workload import lower_network
from repro.perf import span
from repro.soc.dssoc import DssocDesign, DssocEvaluator
from repro.soc.estimate import Tier0Estimator, power_weight_floor
from tests.scalesim.zoo import ZOO, random_configs


def random_designs(seed, count):
    rng = np.random.default_rng(seed)
    configs = random_configs(rng, count)
    return [DssocDesign(policy=ZOO[int(rng.integers(len(ZOO)))],
                        accelerator=config)
            for config in configs]


class TestFloors:
    @pytest.mark.parametrize("operating_fps", [None, 60.0, 5.0])
    def test_floors_hold_in_both_frame_modes(self, operating_fps):
        designs = random_designs(seed=41, count=48)
        evaluator = DssocEvaluator(operating_fps=operating_fps)
        bounds = Tier0Estimator().estimate_designs(designs)
        exact = [evaluator.evaluate(design) for design in designs]
        for i, evaluation in enumerate(exact):
            assert bounds.latency_s[i] <= evaluation.latency_seconds
            assert bounds.soc_power_w[i] <= evaluation.soc_power_w
            assert bounds.compute_weight_g[i] <= evaluation.compute_weight_g

    def test_power_floor_varies_with_array_size(self):
        designs = random_designs(seed=7, count=16)
        configs = [d.accelerator for d in designs]
        power_lb, weight_lb = power_weight_floor(configs)
        num_pes = np.asarray([c.num_pes for c in configs])
        order = np.argsort(num_pes)
        assert power_lb[order[-1]] > power_lb[order[0]]
        assert np.all(weight_lb > 0)
        assert np.all(power_lb > 0)


class TestEstimatorCaching:
    def test_second_pass_is_served_from_cache(self):
        reset_shared_cache()
        designs = random_designs(seed=3, count=12)
        estimator = Tier0Estimator()
        first = estimator.estimate_designs(designs)
        with span("second") as lookups:
            second = Tier0Estimator().estimate_designs(designs)
        assert lookups.total("cache.hits") >= (
            len(designs) - lookups.total("cache.misses"))
        assert np.array_equal(first.total_cycles, second.total_cycles)
        assert np.array_equal(first.soc_power_w, second.soc_power_w)
        reset_shared_cache()

    def test_each_screened_design_is_one_lookup_on_a_cold_cache(self):
        reset_shared_cache()
        cache = shared_report_cache()
        designs = random_designs(seed=3, count=12)
        Tier0Estimator().estimate_designs(designs)
        assert len(cache) == 12
        assert (cache.stats.hits, cache.stats.misses) == (0, 12)
        Tier0Estimator().estimate_designs(designs)
        assert (cache.stats.hits, cache.stats.misses) == (12, 12)
        reset_shared_cache()

    def test_duplicate_designs_share_one_slot(self):
        reset_shared_cache()
        designs = random_designs(seed=5, count=4)
        doubled = list(designs) + list(designs)
        bounds = Tier0Estimator().estimate_designs(doubled)
        assert bounds.batch_size == len(doubled)
        half = len(designs)
        assert np.array_equal(bounds.total_cycles[:half],
                              bounds.total_cycles[half:])
        reset_shared_cache()


class TestKeySchema:
    def test_estimate_keys_never_collide_with_design_keys(self):
        design = random_designs(seed=1, count=1)[0]
        workload = DssocEvaluator.workload_for(design.policy)
        tier0 = estimate_key(workload, design.accelerator)
        for operating_fps in (None, 60.0):
            tier1 = evaluation_key(design, operating_fps)
            assert tier0[0] != tier1[0]
            assert tier0 != tier1

    def test_estimate_key_accepts_precomputed_fingerprint(self):
        workload = lower_network(
            DssocEvaluator().network_for(PolicyHyperparams(2, 32)))
        config = random_designs(seed=1, count=1)[0].accelerator
        direct = estimate_key(workload, config)
        via_fp = estimate_key(None, config,
                              workload_fp=workload_fingerprint(workload))
        assert direct == via_fp

    def test_distinct_configs_and_workloads_never_alias(self):
        designs = random_designs(seed=13, count=24)
        keys = set()
        for design in designs:
            workload = lower_network(
                DssocEvaluator().network_for(design.policy))
            keys.add(estimate_key(workload, design.accelerator))
        distinct = {(d.policy.identifier, d.accelerator)
                    for d in designs}
        assert len(keys) == len(distinct)
