"""Unit tests for the Phase 3 back end."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.phase2 import CandidateDesign
from repro.core.phase3 import BackEnd
from repro.core.spec import TaskSpec, assignment_to_design
from repro.errors import ConfigError
from repro.soc.dssoc import DssocEvaluator
from repro.uav.platforms import NANO_ZHANG


def make_candidate(pe_rows=16, pe_cols=16, sram=64, success=0.8):
    design = assignment_to_design({
        "num_layers": 7, "num_filters": 48, "pe_rows": pe_rows,
        "pe_cols": pe_cols, "ifmap_sram_kb": sram, "filter_sram_kb": sram,
        "ofmap_sram_kb": sram,
    })
    evaluation = DssocEvaluator().evaluate(design)
    return CandidateDesign(evaluation=evaluation, success_rate=success)


@pytest.fixture(scope="module")
def candidates():
    return [make_candidate(8, 8), make_candidate(16, 32),
            make_candidate(32, 32), make_candidate(128, 128)]


@pytest.fixture(scope="module")
def task():
    return TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)


class TestSelection:
    def test_selected_maximises_missions_without_tuning(self, candidates,
                                                        task):
        backend = BackEnd(enable_finetuning=False)
        result = backend.run(candidates, task)
        missions = [r.num_missions for r in result.ranked]
        assert result.selected.num_missions == max(missions)

    def test_ranked_sorted_descending(self, candidates, task):
        result = BackEnd(enable_finetuning=False).run(candidates, task)
        missions = [r.num_missions for r in result.ranked]
        assert missions == sorted(missions, reverse=True)

    def test_ranked_covers_all_eligible(self, candidates, task):
        result = BackEnd(enable_finetuning=False).run(candidates, task)
        assert len(result.ranked) == len(candidates)

    def test_knee_reported(self, candidates, task):
        result = BackEnd(enable_finetuning=False).run(candidates, task)
        assert result.knee_throughput_hz == pytest.approx(46.0, rel=0.1)

    def test_empty_candidates_rejected(self, task):
        with pytest.raises(ConfigError):
            BackEnd().run([], task)


class TestFineTuning:
    def test_finetuning_never_hurts(self, candidates, task):
        untuned = BackEnd(enable_finetuning=False).run(candidates, task)
        tuned = BackEnd(enable_finetuning=True).run(candidates, task)
        assert tuned.selected.num_missions >= untuned.selected.num_missions

    def test_finetuned_flag_matches_clock_scale(self, candidates, task):
        result = BackEnd(enable_finetuning=True).run(candidates, task)
        if result.finetuned:
            assert result.selected.clock_scale != 1.0
        else:
            assert result.selected.clock_scale == 1.0

    def test_tuned_design_moves_toward_knee(self, task):
        # A grossly over-provisioned candidate pool: tuning should slow
        # the clock toward the knee.
        overkill = [make_candidate(128, 128)]
        result = BackEnd(enable_finetuning=True).run(overkill, task)
        if result.finetuned:
            assert result.selected.clock_scale < 1.0


class TestWeightFeedbackAblation:
    def test_no_feedback_charges_motherboard_only(self, candidates, task):
        blind = BackEnd(enable_finetuning=False, weight_feedback=False)
        result = blind.run(candidates, task)
        for ranked in result.ranked:
            assert ranked.mission.compute_weight_g == pytest.approx(20.0)

    def test_feedback_charges_full_weight(self, candidates, task):
        backend = BackEnd(enable_finetuning=False, weight_feedback=True)
        result = backend.run(candidates, task)
        heavy = [r for r in result.ranked
                 if r.candidate.design.accelerator.num_pes == 128 * 128]
        assert heavy[0].mission.compute_weight_g > 30.0

    def test_blind_backend_overrates_heavy_designs(self, candidates, task):
        # Without weight feedback the big array looks better than it is.
        blind = BackEnd(enable_finetuning=False, weight_feedback=False)
        truth = BackEnd(enable_finetuning=False, weight_feedback=True)
        big = [c for c in candidates
               if c.design.accelerator.num_pes == 128 * 128][0]
        assert blind.mission_for(big, task).num_missions > \
            truth.mission_for(big, task).num_missions
