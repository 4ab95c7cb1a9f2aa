"""Batch-vs-scalar bit-equality for the tensorised Phase 2 core.

The vectorisation contract (DESIGN.md): the SoA batch kernel, the
batched power/weight evaluation and the shared-factorisation GP must
reproduce the scalar reference paths *bit-for-bit* -- same integer
fold/telescoping arithmetic, same float operation groupings.  These
tests enforce the contract over randomized accelerator configs x
model-zoo workloads, including the degenerate corners (1x1 arrays,
SRAM smaller than one tile), and pin the GP incremental-vs-refit
equivalence.
"""

import numpy as np
import pytest

from repro.core.evalcache import (
    design_key,
    reset_shared_cache,
    shared_report_cache,
)
from repro.nn.template import PolicyHyperparams, build_policy_network
from repro.nn.workload import lower_network
from repro.optim.gp import GaussianProcess, MultiObjectiveGP, gp_stats
from repro.optim.space import DesignSpace, Dimension
from repro.scalesim.batch import simulate_batch
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)
from repro.scalesim.simulator import SystolicArraySimulator
from repro.soc.dssoc import DssocDesign, DssocEvaluator

#: Model-zoo corners plus a mid-size policy: smallest, typical, largest.
ZOO = (
    PolicyHyperparams(num_layers=2, num_filters=32),
    PolicyHyperparams(num_layers=5, num_filters=48),
    PolicyHyperparams(num_layers=10, num_filters=64),
)


def random_configs(rng, count, pe_choices=PE_DIM_CHOICES,
                   sram_choices=SRAM_KB_CHOICES):
    """Uniform random accelerator configs over all three dataflows."""
    return [
        AcceleratorConfig(
            pe_rows=int(rng.choice(pe_choices)),
            pe_cols=int(rng.choice(pe_choices)),
            ifmap_sram_kb=int(rng.choice(sram_choices)),
            filter_sram_kb=int(rng.choice(sram_choices)),
            ofmap_sram_kb=int(rng.choice(sram_choices)),
            dataflow=list(Dataflow)[int(rng.integers(3))],
        )
        for _ in range(count)
    ]


def workload_for(policy):
    return lower_network(build_policy_network(policy))


def assert_reports_bit_identical(batch_report, scalar_report):
    """Field-by-field equality -- integers must match exactly."""
    assert batch_report.network_name == scalar_report.network_name
    assert batch_report.clock_hz == scalar_report.clock_hz
    assert len(batch_report.layers) == len(scalar_report.layers)
    for got, want in zip(batch_report.layers, scalar_report.layers):
        assert got.mapping == want.mapping, got.name
        assert got.traffic == want.traffic, got.name
        assert got.total_cycles == want.total_cycles, got.name
    assert batch_report == scalar_report


class TestBatchKernelEquivalence:
    """simulate_batch vs SystolicArraySimulator._simulate, per point."""

    @pytest.mark.parametrize("policy", ZOO,
                             ids=[p.identifier for p in ZOO])
    def test_randomized_configs_bit_identical(self, policy):
        rng = np.random.default_rng(17)
        workload = workload_for(policy)
        configs = random_configs(rng, 24)
        reports = simulate_batch(workload, configs).reports()
        for config, report in zip(configs, reports):
            scalar = SystolicArraySimulator(config)._simulate(workload)
            assert_reports_bit_identical(report, scalar)

    @pytest.mark.parametrize("dataflow", list(Dataflow),
                             ids=[d.value for d in Dataflow])
    def test_every_dataflow_bit_identical(self, dataflow):
        workload = workload_for(ZOO[1])
        configs = [
            AcceleratorConfig(pe_rows=rows, pe_cols=cols,
                              ifmap_sram_kb=sram, filter_sram_kb=sram,
                              ofmap_sram_kb=sram, dataflow=dataflow)
            for rows, cols, sram in ((8, 64, 32), (64, 8, 64),
                                     (32, 32, 4096))
        ]
        reports = simulate_batch(workload, configs).reports()
        for config, report in zip(configs, reports):
            scalar = SystolicArraySimulator(config)._simulate(workload)
            assert_reports_bit_identical(report, scalar)

    def test_degenerate_one_by_one_array(self):
        workload = workload_for(ZOO[0])
        configs = [
            AcceleratorConfig(pe_rows=1, pe_cols=1, ifmap_sram_kb=32,
                              filter_sram_kb=32, ofmap_sram_kb=32,
                              dataflow=dataflow)
            for dataflow in Dataflow
        ]
        reports = simulate_batch(workload, configs).reports()
        for config, report in zip(configs, reports):
            scalar = SystolicArraySimulator(config)._simulate(workload)
            assert_reports_bit_identical(report, scalar)

    def test_sram_smaller_than_one_tile(self):
        # 1 KB scratchpads force the refetch path on every layer of the
        # largest policy; the batch orientation selection (np.where)
        # must still match the scalar branch exactly.
        workload = workload_for(ZOO[2])
        configs = [
            AcceleratorConfig(pe_rows=256, pe_cols=256, ifmap_sram_kb=1,
                              filter_sram_kb=1, ofmap_sram_kb=1,
                              dataflow=dataflow)
            for dataflow in Dataflow
        ]
        reports = simulate_batch(workload, configs).reports()
        for config, report in zip(configs, reports):
            scalar = SystolicArraySimulator(config)._simulate(workload)
            assert_reports_bit_identical(report, scalar)

    def test_mixed_dataflow_batch_preserves_order(self):
        rng = np.random.default_rng(23)
        workload = workload_for(ZOO[0])
        configs = random_configs(rng, 12)
        sim = simulate_batch(workload, configs)
        assert sim.total_cycles.shape == (12, len(workload.layers))
        reports = sim.reports()
        assert [r.clock_hz for r in reports] == \
            [c.clock_hz for c in configs]


class TestEvaluateBatchEquivalence:
    """DssocEvaluator.evaluate_batch vs evaluate, per design point."""

    def setup_method(self):
        reset_shared_cache()

    def teardown_method(self):
        reset_shared_cache()

    def _designs(self, rng, count):
        zoo = list(ZOO)
        return [
            DssocDesign(policy=zoo[int(rng.integers(len(zoo)))],
                        accelerator=config)
            for config in random_configs(rng, count)
        ]

    @pytest.mark.parametrize("operating_fps", [None, 60.0],
                             ids=["peak", "fps60"])
    def test_cold_cache_bit_identical(self, operating_fps):
        designs = self._designs(np.random.default_rng(5), 40)
        reset_shared_cache()
        scalar = [DssocEvaluator(operating_fps=operating_fps).evaluate(d)
                  for d in designs]
        reset_shared_cache()
        batch = DssocEvaluator(
            operating_fps=operating_fps).evaluate_batch(designs)
        for s, b in zip(scalar, batch):
            assert s == b

    def test_largest_policy_cold_pool_bit_identical(self):
        """The pool ``benchmarks/test_runtime_gates.py`` times: 1024
        random configs under the largest zoo policy, one kernel group."""
        designs = [DssocDesign(policy=ZOO[-1], accelerator=config)
                   for config in random_configs(np.random.default_rng(11),
                                                1024)]
        evaluator = DssocEvaluator()
        scalar = [evaluator.evaluate(d) for d in designs]
        reset_shared_cache()
        assert list(evaluator.evaluate_batch(designs)) == scalar

    def test_mixed_warm_cold_cache_bit_identical(self):
        designs = self._designs(np.random.default_rng(9), 30)
        evaluator = DssocEvaluator()
        scalar = [DssocEvaluator().evaluate(d) for d in designs]
        reset_shared_cache()
        # Warm half the cache through the scalar path, then batch all.
        for design in designs[::2]:
            evaluator.evaluate(design)
        batch = evaluator.evaluate_batch(designs)
        for s, b in zip(scalar, batch):
            assert s == b

    def test_batch_fills_shared_cache(self):
        designs = self._designs(np.random.default_rng(11), 8)
        evaluator = DssocEvaluator()
        evaluator.evaluate_batch(designs)
        cache = shared_report_cache()
        for design in designs:
            workload = lower_network(evaluator.network_for(design.policy))
            assert design_key(workload, design.accelerator) in cache

    def test_duplicate_designs_share_one_simulation(self):
        rng = np.random.default_rng(13)
        base = self._designs(rng, 6)
        designs = base + base  # every point duplicated
        batch = DssocEvaluator().evaluate_batch(designs)
        for first, second in zip(batch[:6], batch[6:]):
            assert first == second
            assert first.report is second.report  # cached, not re-simulated


class TestGpIncrementalEquivalence:
    """MultiObjectiveGP vs per-objective GaussianProcess refits."""

    def _data(self, seed, n, d=7, m=3):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 8, size=(n, d)) / 7.0  # grid-like BO inputs
        y = rng.normal(size=(n, m))
        xq = rng.integers(0, 8, size=(19, d)) / 7.0
        return x, y, xq

    def test_shared_factorisation_bit_identical_to_scalar(self):
        for seed in range(5):
            x, y, xq = self._data(seed, n=12 + 3 * seed)
            mo = MultiObjectiveGP().fit(x, y)
            means, stds = mo.predict(xq)
            for j in range(y.shape[1]):
                gp = GaussianProcess().fit(x, y[:, j])
                mean, std = gp.predict(xq)
                assert gp.fitted_lengthscale == mo.fitted_lengthscales[j]
                assert np.array_equal(mean, means[:, j])
                assert np.array_equal(std, stds[:, j])

    def test_incremental_update_matches_full_refit(self):
        # At a fixed lengthscale the extended factor must reproduce the
        # from-scratch factorisation to numerical round-off.
        x, y, xq = self._data(3, n=26)
        inc = MultiObjectiveGP(lengthscale=0.8, refit_every=16)
        ref = MultiObjectiveGP(lengthscale=0.8)
        inc.fit(x[:18], y[:18])
        for n in range(19, 27):
            inc.fit(x[:n], y[:n])
        ref.fit(x, y)
        im, isd = inc.predict(xq)
        rm, rsd = ref.predict(xq)
        assert np.abs(im - rm).max() < 1e-8
        assert np.abs(isd - rsd).max() < 1e-8

    def test_refit_cadence_counts_grid_fits(self):
        x, y, _ = self._data(4, n=20, m=2)
        gp = MultiObjectiveGP(refit_every=3)
        before = gp_stats().snapshot()
        gp.fit(x[:10], y[:10])
        for n in range(11, 21):
            gp.fit(x[:n], y[:n])
        delta = gp_stats().since(before)
        # Grid refits at n=10 (first) then every 3rd appended point;
        # the other fits must take the incremental path.
        assert delta.full_fits == 2 * 4  # 4 grid fits x 2 objectives
        assert delta.incremental_updates == 2 * 7
        assert delta.update_wall_s >= 0.0

    def test_changed_prefix_falls_back_to_exact_refit(self):
        x, y, xq = self._data(6, n=15)
        gp = MultiObjectiveGP(refit_every=50).fit(x[:10], y[:10])
        x2 = x.copy()
        x2[0, 0] += 0.5  # history rewritten: the factor cannot extend
        gp.fit(x2, y)
        fresh = MultiObjectiveGP(refit_every=50).fit(x2, y)
        gm, gs = gp.predict(xq)
        fm, fs = fresh.predict(xq)
        assert np.array_equal(gm, fm)
        assert np.array_equal(gs, fs)

    def test_default_refit_every_is_exact(self):
        # refit_every=1 never takes the incremental path, keeping the
        # legacy fit-every-proposal behaviour bit-for-bit.
        x, y, _ = self._data(7, n=12, m=2)
        gp = MultiObjectiveGP()
        before = gp_stats().snapshot()
        gp.fit(x[:10], y[:10])
        gp.fit(x, y)
        assert gp_stats().since(before).incremental_updates == 0


class TestSampleBlockStream:
    """Vectorised sampling must consume the seed's exact RNG stream."""

    def _space(self):
        return DesignSpace([
            Dimension("a", tuple(range(4))),
            Dimension("b", tuple(range(7))),
            Dimension("c", tuple(range(3))),
        ])

    def test_block_matches_sequential_draws(self):
        space = self._space()
        for seed in range(10):
            r_seq = np.random.default_rng(seed)
            r_blk = np.random.default_rng(seed)
            expected = [
                {dim.name: dim.values[r_seq.integers(len(dim.values))]
                 for dim in space.dimensions}
                for _ in range(9)
            ]
            points, keys = space.sample_block(r_blk, 9)
            assert points == expected
            assert keys == [space.key(p) for p in points]
            # Post-draw generator state must match too.
            assert r_seq.integers(10 ** 6) == r_blk.integers(10 ** 6)

    def test_sample_delegates_to_block(self):
        space = self._space()
        a = space.sample(np.random.default_rng(3), 5)
        b, _ = space.sample_block(np.random.default_rng(3), 5)
        assert a == b

    def test_empty_block(self):
        points, keys = self._space().sample_block(
            np.random.default_rng(0), 0)
        assert points == [] and keys == []
