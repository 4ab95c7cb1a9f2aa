"""ASCII rendering of arenas and flight paths (simulator debugging).

Renders a top-down view of a generated arena -- walls, obstacles,
start, goal -- optionally overlaying a flown trajectory, so episodes
can be inspected in a terminal or a test log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.airlearning.arena import Arena
from repro.errors import ConfigError

#: Glyphs used by the renderer.
GLYPH_EMPTY = "."
GLYPH_OBSTACLE = "#"
GLYPH_START = "S"
GLYPH_GOAL = "G"
GLYPH_PATH = "*"


def render_arena(arena: Arena,
                 path: Optional[Sequence[Tuple[float, float]]] = None,
                 cells: int = 30) -> str:
    """Render the arena as a ``cells x cells`` character grid.

    The path (if given) is drawn beneath start/goal markers so the
    endpoints stay visible.
    """
    if cells < 8:
        raise ConfigError("cells must be at least 8")
    scale = arena.size_m / cells

    def to_cell(x: float, y: float) -> Tuple[int, int]:
        col = min(cells - 1, max(0, int(x / scale)))
        row = min(cells - 1, max(0, int(y / scale)))
        return row, col

    grid: List[List[str]] = [[GLYPH_EMPTY] * cells for _ in range(cells)]

    # Obstacles: mark every cell whose centre lies inside one.
    for row in range(cells):
        for col in range(cells):
            x = (col + 0.5) * scale
            y = (row + 0.5) * scale
            if any(o.contains(x, y) for o in arena.obstacles):
                grid[row][col] = GLYPH_OBSTACLE

    if path:
        for x, y in path:
            row, col = to_cell(x, y)
            grid[row][col] = GLYPH_PATH

    start_row, start_col = to_cell(*arena.start)
    goal_row, goal_col = to_cell(*arena.goal)
    grid[start_row][start_col] = GLYPH_START
    grid[goal_row][goal_col] = GLYPH_GOAL

    # Row 0 is y=0 (bottom); print top-down.
    lines = ["".join(row) for row in reversed(grid)]
    border = "+" + "-" * cells + "+"
    return "\n".join([border] + [f"|{line}|" for line in lines] + [border])

