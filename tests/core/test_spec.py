"""Unit tests for the task spec, run config and joint design space."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.airlearning.trainer import CemTrainer
from repro.core.spec import (
    RunConfig,
    TaskSpec,
    assignment_to_design,
    build_design_space,
    design_to_assignment,
)
from repro.errors import ConfigError
from repro.uav.platforms import NANO_ZHANG


class TestTaskSpec:
    def test_defaults(self):
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW)
        assert task.sensor_fps == 60.0
        assert task.min_success_rate == 0.0

    def test_rejects_bad_sensor(self):
        with pytest.raises(ConfigError):
            TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                     sensor_fps=0.0)

    def test_rejects_bad_success_rate(self):
        with pytest.raises(ConfigError):
            TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                     min_success_rate=1.2)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ConfigError):
            TaskSpec(platform=NANO_ZHANG, scenario=Scenario.LOW,
                     success_tolerance=-0.1)


class TestRunConfig:
    def test_trainer_backend_fills_in_the_default_trainer(self):
        config = RunConfig(seed=0, budget=1, frontend_backend="trainer")
        assert config.trainer == CemTrainer().settings()
        partial = RunConfig(seed=0, budget=1, frontend_backend="trainer",
                            trainer={"population_size": 8})
        assert partial.trainer == CemTrainer(population_size=8).settings()
        assert RunConfig(seed=0, budget=1).trainer is None

    @pytest.mark.parametrize("overrides, message", [
        ({"fidelity": "maybe"}, "fidelity must be"),
        ({"frontend_backend": "oracle"}, "frontend_backend must be"),
        ({"trainer": {"population_size": 8}}, "need frontend_backend"),
        ({"frontend_backend": "trainer", "trainer": {"elite_count": 30}},
         "elite_count must be"),
        ({"promotion_eta": 1.5}, "promotion_eta must be"),
    ])
    def test_rejects_invalid_values(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(seed=0, budget=1, **overrides)


class TestDesignSpace:
    def test_joint_size_matches_table2(self):
        # 27 NN points x 32768 hardware points.
        assert build_design_space().size() == 27 * 32768

    def test_seven_dimensions(self):
        assert build_design_space().num_dimensions == 7

    def test_restricted_space(self):
        space = build_design_space(layer_choices=(2, 3),
                                   filter_choices=(32,),
                                   pe_choices=(8, 16),
                                   sram_choices=(32,))
        assert space.size() == 2 * 1 * 2 * 2 * 1 * 1 * 1


class TestAssignmentConversion:
    def test_roundtrip(self):
        assignment = {
            "num_layers": 7, "num_filters": 48, "pe_rows": 32,
            "pe_cols": 64, "ifmap_sram_kb": 128, "filter_sram_kb": 256,
            "ofmap_sram_kb": 64,
        }
        design = assignment_to_design(assignment)
        assert design_to_assignment(design) == assignment

    def test_design_fields(self):
        design = assignment_to_design({
            "num_layers": 5, "num_filters": 32, "pe_rows": 16,
            "pe_cols": 16, "ifmap_sram_kb": 64, "filter_sram_kb": 64,
            "ofmap_sram_kb": 64,
        })
        assert design.policy.num_layers == 5
        assert design.accelerator.pe_rows == 16

    def test_custom_clock_propagates(self):
        design = assignment_to_design({
            "num_layers": 5, "num_filters": 32, "pe_rows": 16,
            "pe_cols": 16, "ifmap_sram_kb": 64, "filter_sram_kb": 64,
            "ofmap_sram_kb": 64,
        }, clock_hz=100e6)
        assert design.accelerator.clock_hz == 100e6

    def test_all_space_points_materialise(self):
        space = build_design_space(layer_choices=(2,), filter_choices=(32,),
                                   pe_choices=(8, 1024),
                                   sram_choices=(32, 4096))
        for assignment in space.all_points():
            design = assignment_to_design(assignment)
            assert design.accelerator.num_pes > 0
