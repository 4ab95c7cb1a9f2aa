"""Tests for arena rendering."""

import pytest

from repro.airlearning.arena import Arena, Obstacle
from repro.airlearning.env import NavigationEnv
from repro.airlearning.render import render_arena
from repro.airlearning.scenarios import Scenario
from repro.errors import ConfigError


def make_arena():
    return Arena(size_m=10.0, obstacles=(Obstacle(5.0, 5.0, 1.5),),
                 start=(1.0, 1.0), goal=(9.0, 9.0))


class TestRenderArena:
    def test_contains_markers(self):
        text = render_arena(make_arena())
        assert "S" in text and "G" in text and "#" in text

    def test_dimensions(self):
        text = render_arena(make_arena(), cells=20)
        lines = text.splitlines()
        assert len(lines) == 22  # 20 rows + 2 borders
        assert all(len(line) == 22 for line in lines)

    def test_obstacle_block_present(self):
        text = render_arena(make_arena(), cells=20)
        # A 1.5 m radius obstacle covers multiple cells.
        assert text.count("#") >= 4

    def test_path_overlay(self):
        path = [(2.0, 2.0), (3.0, 3.0), (4.0, 2.0)]
        text = render_arena(make_arena(), path=path)
        assert "*" in text

    def test_start_goal_visible_over_path(self):
        path = [(1.0, 1.0), (9.0, 9.0)]
        text = render_arena(make_arena(), path=path)
        assert "S" in text and "G" in text

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ConfigError):
            render_arena(make_arena(), cells=4)

    def test_generated_arena_renders(self):
        env = NavigationEnv(Scenario.DENSE, seed=2)
        env.reset()
        text = render_arena(env.arena)
        assert "#" in text
