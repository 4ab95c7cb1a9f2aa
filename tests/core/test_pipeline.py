"""Unit tests for the full AutoPilot pipeline."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.evalcache import reset_shared_cache, shared_report_cache
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.uav.platforms import DJI_SPARK, NANO_ZHANG


@pytest.fixture(scope="module")
def autopilot():
    return AutoPilot(RunConfig(seed=11, budget=40))


@pytest.fixture(scope="module")
def result(autopilot):
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    return autopilot.run(task)


class TestPipeline:
    def test_all_phases_present(self, result):
        assert len(result.phase1.database) >= 27
        assert len(result.phase2.candidates) == 40
        assert result.phase3.selected is not None

    def test_selected_accessors(self, result):
        assert result.selected is result.phase3.selected
        assert result.num_missions == result.selected.num_missions
        assert result.num_missions > 0

    def test_selected_meets_success_band(self, result):
        best = max(c.success_rate for c in result.phase2.candidates)
        assert result.selected.candidate.success_rate >= best - 0.021

    def test_phase2_cache_reused_across_platforms(self, autopilot, result):
        # Same scenario on a different UAV: Phase 2 is shared, only
        # Phase 3 re-runs.
        task = TaskSpec(platform=DJI_SPARK, scenario=Scenario.DENSE)
        other = autopilot.run(task)
        assert other.phase2 is result.phase2

    def test_phase1_database_shared(self, autopilot, result):
        assert result.phase1.database is autopilot.database

    def test_fresh_phase2_when_reuse_disabled(self, autopilot, result):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
        fresh = autopilot.run(task, reuse_phase2=False)
        assert fresh.phase2 is not result.phase2

    def test_determinism_across_instances(self):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        config = RunConfig(seed=5, budget=20)
        a = AutoPilot(config).run(task)
        b = AutoPilot(config).run(task)
        assert a.selected.candidate.design.describe() == \
            b.selected.candidate.design.describe()
        assert a.num_missions == pytest.approx(b.num_missions)


REPEAT_CONFIG = RunConfig(seed=7, budget=30)


@pytest.fixture(scope="class")
def repeated_runs():
    """One profiled run on a cold report cache, then the same run again.

    Returns both results and the second run's cache hits and misses,
    read from its profile span.
    """
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    reset_shared_cache()
    first = AutoPilot(REPEAT_CONFIG).run(task, profile=True)
    second = AutoPilot(REPEAT_CONFIG).run(task, profile=True)
    lookups = (second.profile.total("cache.hits"),
               second.profile.total("cache.misses"))
    reset_shared_cache()
    return first, second, lookups


class TestRepeatedRun:
    """A repeated pipeline run is served from the report cache."""

    def test_every_budgeted_evaluation_is_a_candidate(self, repeated_runs):
        first, _, _ = repeated_runs
        assert len(first.phase2.candidates) == REPEAT_CONFIG.budget

    def test_repeat_hit_rate_above_half(self, repeated_runs):
        _, _, (hits, misses) = repeated_runs
        assert hits > 0
        assert hits / (hits + misses) > 0.5

    def test_repeat_selects_the_same_design(self, repeated_runs):
        first, second, _ = repeated_runs
        assert first.num_missions == second.num_missions


class TestPhase1Reuse:
    def test_each_template_point_trains_once_per_scenario(self,
                                                          monkeypatch):
        """The Air Learning database is Phase 1's only memo: one
        AutoPilot that runs a two-platform bench of one scenario and then
        one of its tasks again trains every template point once."""
        from repro.airlearning.trainer import CemTrainer
        from repro.bench import BenchRunner, build_suite
        from repro.nn.template import enumerate_template_space

        calls = []
        train = CemTrainer.train

        def spy(trainer, hyperparams, scenario, *args, **kwargs):
            calls.append((hyperparams, scenario.value))
            return train(trainer, hyperparams, scenario, *args, **kwargs)

        monkeypatch.setattr(CemTrainer, "train", spy)
        config = RunConfig(seed=3, budget=6, frontend_backend="trainer",
                           trainer={"population_size": 4, "iterations": 1,
                                    "episodes_per_candidate": 1})
        autopilot = AutoPilot(config, workers=1)
        # Validation is not under test: one episode per point keeps the
        # 27 trainings the bulk of a short run.
        autopilot.frontend.validation_episodes = 1
        suite = build_suite(ids=["dense"], platforms=["nano", "micro"])
        assert len(BenchRunner(autopilot).run(suite).metrics) == 2
        autopilot.run(suite.cells()[0].task(60.0))

        points = list(enumerate_template_space())
        assert len(calls) == len(points)
        assert set(calls) == {(point, "dense") for point in points}


class TestEvaluationReuse:
    def test_bench_does_each_evaluation_step_once(self, monkeypatch):
        """Across a two-scenario, two-platform bench, each template point
        is built and lowered once and each distinct design power-modelled
        once, while the shared cache counts the same hits and misses as
        when every repeat re-ran the power model (30 and 31)."""
        from repro.bench import BenchRunner, build_suite
        from repro.core import evalcache
        from repro.core.evalcache import EvalCache, config_fingerprint
        from repro.soc import dssoc
        from repro.soc.dssoc import DssocEvaluator

        cache = EvalCache()
        monkeypatch.setattr(evalcache, "_shared_cache", cache)
        DssocEvaluator.network_for.cache_clear()
        DssocEvaluator.workload_for.cache_clear()
        built, lowered, powered = [], [], []
        build = dssoc.build_policy_network
        lower = dssoc.lower_network
        power = dssoc.accelerator_power

        def build_spy(policy):
            built.append(policy)
            return build(policy)

        def lower_spy(network):
            lowered.append(network.hyperparams)
            return lower(network)

        def power_spy(report, config, frames_per_second=None):
            powered.append((report.network_name, config_fingerprint(config),
                            frames_per_second))
            return power(report, config, frames_per_second=frames_per_second)

        monkeypatch.setattr(dssoc, "build_policy_network", build_spy)
        monkeypatch.setattr(dssoc, "lower_network", lower_spy)
        monkeypatch.setattr(dssoc, "accelerator_power", power_spy)
        suite = build_suite(ids=["low", "dense"], platforms=["nano", "micro"])
        autopilot = AutoPilot(RunConfig(seed=3, budget=12))
        assert len(BenchRunner(autopilot).run(suite).metrics) == 4

        assert len(built) == len(set(built)) == 12
        assert lowered == built
        assert {name for name, _, _ in powered} == {
            policy.identifier for policy in built}
        assert len(powered) == len(set(powered)) == cache.stats.misses
        assert (cache.stats.hits, cache.stats.misses) == (30, 31)
