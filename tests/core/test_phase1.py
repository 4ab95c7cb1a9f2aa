"""Unit tests for the Phase 1 front end."""

import pytest

from repro.airlearning.database import AirLearningDatabase
from repro.airlearning.scenarios import ALL_SCENARIOS, Scenario
from repro.airlearning.surrogate import SuccessRateSurrogate
from repro.airlearning.trainer import CemTrainer
from repro.core.phase1 import FrontEnd
from repro.core.spec import TaskSpec
from repro.errors import ConfigError
from repro.nn.template import PolicyHyperparams, enumerate_template_space
from repro.uav.platforms import NANO_ZHANG


def make_task(scenario=Scenario.LOW):
    return TaskSpec(platform=NANO_ZHANG, scenario=scenario)


class TestSurrogateBackend:
    def test_populates_full_template_space(self):
        result = FrontEnd(backend="surrogate").run(make_task())
        assert len(result.database) == 27
        assert len(result.trained) == 27

    def test_rates_match_surrogate(self):
        result = FrontEnd(backend="surrogate", seed=0).run(make_task())
        surrogate = SuccessRateSurrogate(seed=0)
        point = PolicyHyperparams(5, 32)
        assert result.database.success_rate(point, Scenario.LOW) == \
            surrogate.success_rate(point, Scenario.LOW)

    def test_existing_records_reused(self):
        frontend = FrontEnd(backend="surrogate")
        database = AirLearningDatabase()
        first = frontend.run(make_task(), database=database)
        second = frontend.run(make_task(), database=database)
        assert len(first.trained) == 27
        assert len(second.trained) == 0  # nothing retrained

    def test_scenarios_accumulate_in_shared_database(self):
        frontend = FrontEnd(backend="surrogate")
        database = AirLearningDatabase()
        frontend.run(make_task(Scenario.LOW), database=database)
        frontend.run(make_task(Scenario.DENSE), database=database)
        assert len(database) == 54

    def test_subset_restriction(self):
        subset = [PolicyHyperparams(2, 32), PolicyHyperparams(3, 48)]
        result = FrontEnd(backend="surrogate").run(make_task(),
                                                   hyperparams=subset)
        assert len(result.database) == 2

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_best_record_is_the_surrogate_argmax(self, scenario):
        surrogate = SuccessRateSurrogate(seed=0)
        best = max(enumerate_template_space(),
                   key=lambda p: surrogate.success_rate(p, scenario))
        result = FrontEnd(backend="surrogate", seed=0).run(
            make_task(scenario))
        assert result.database.best(scenario).hyperparams == best

    def test_best_success_rate_helper(self):
        result = FrontEnd(backend="surrogate").run(make_task())
        assert result.best_success_rate(make_task()) == pytest.approx(
            0.91, abs=0.01)


class TestTrainerBackend:
    def test_trainer_backend_runs_and_records(self):
        trainer = CemTrainer(population_size=8, iterations=2,
                             episodes_per_candidate=1, seed=3)
        frontend = FrontEnd(backend="trainer", seed=3, trainer=trainer,
                            validation_episodes=4)
        result = frontend.run(make_task(),
                              hyperparams=[PolicyHyperparams(2, 32)])
        record = result.database.get(PolicyHyperparams(2, 32), Scenario.LOW)
        assert record is not None
        assert 0.0 <= record.success_rate <= 1.0


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            FrontEnd(backend="magic")


class TestTrainerBackendScaling:
    @staticmethod
    def make_frontend(workers=1):
        trainer = CemTrainer(population_size=8, iterations=1,
                             episodes_per_candidate=1, seed=3)
        return FrontEnd(backend="trainer", seed=3, trainer=trainer,
                        validation_episodes=4, workers=workers)

    @staticmethod
    def success_rates(result, points, scenario=Scenario.LOW):
        return [result.database.get(p, scenario).success_rate
                for p in points]

    def test_env_steps_are_recorded(self):
        result = self.make_frontend().run(
            make_task(), hyperparams=[PolicyHyperparams(2, 32)])
        assert result.backend == "trainer"
        assert result.env_steps > 0

    def test_parallel_workers_match_serial(self):
        points = [PolicyHyperparams(2, 32), PolicyHyperparams(3, 32)]
        serial = self.make_frontend(workers=1).run(make_task(),
                                                   hyperparams=points)
        parallel = self.make_frontend(workers=2).run(make_task(),
                                                     hyperparams=points)
        assert (self.success_rates(serial, points)
                == self.success_rates(parallel, points))
        assert serial.env_steps == parallel.env_steps

    def test_profiler_credited_with_steps(self):
        from repro.perf import span
        with span("phase1") as phase1:
            result = self.make_frontend().run(
                make_task(), hyperparams=[PolicyHyperparams(2, 32)])
        assert phase1.counts == {"steps": result.env_steps}
        assert result.env_steps > 0
        assert phase1.wall_s > 0

    def test_surrogate_is_constructed_once(self):
        frontend = FrontEnd(backend="surrogate", seed=0)
        assert frontend._surrogate is frontend._surrogate
        result = frontend.run(make_task())
        assert result.env_steps == 0
