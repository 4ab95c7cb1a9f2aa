"""Unit tests for the design-report renderer."""

import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.pipeline import AutoPilot
from repro.core.report import render_report
from repro.core.spec import RunConfig, TaskSpec
from repro.uav.platforms import NANO_ZHANG


@pytest.fixture(scope="module")
def result():
    task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
    return AutoPilot(RunConfig(seed=13, budget=25)).run(task)


class TestRenderReport:
    def test_is_markdown_with_title(self, result):
        report = render_report(result)
        assert report.startswith("# AutoPilot design report")

    def test_mentions_platform_and_scenario(self, result):
        report = render_report(result)
        assert NANO_ZHANG.name in report
        assert "dense obstacles" in report

    def test_contains_selected_design(self, result):
        report = render_report(result)
        assert result.selected.candidate.design.policy.identifier in report

    def test_contains_phase_sections(self, result):
        report = render_report(result)
        for heading in ("## Phase 1", "## Phase 2", "## Selected DSSoC",
                        "## F-1 analysis", "## Mission performance"):
            assert heading in report

    def test_reports_mission_count(self, result):
        report = render_report(result)
        assert f"{result.num_missions:.1f}" in report

    def test_reports_knee_point(self, result):
        report = render_report(result)
        assert "Knee-point" in report

    def test_mentions_fixed_components(self, result):
        report = render_report(result)
        assert "OV9755" in report
        assert "MIPI" in report
