"""Built-in benchmark scenarios and seeded map families for experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .grid import GoalSet, GridMap, Point


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    grid: GridMap
    goals: GoalSet


def simple_scenario() -> Scenario:
    """64x64 map with scattered rectangular obstacles and 5 goals."""
    cells = np.zeros((64, 64), dtype=bool)
    for x0, y0, w, h in [
        (10, 8, 8, 6),
        (40, 10, 10, 8),
        (24, 26, 10, 12),
        (8, 44, 12, 8),
        (44, 42, 10, 10),
    ]:
        cells[y0 : y0 + h, x0 : x0 + w] = True
    goals = GoalSet(
        [
            Point(4.5, 4.5),
            Point(58.5, 6.5),
            Point(59.5, 58.5),
            Point(5.5, 58.5),
            Point(32.5, 45.5),
        ]
    )
    return Scenario("simple", GridMap(cells), goals)


def complex_scenario() -> Scenario:
    """64x64 map with a thick dividing wall pierced by two narrow passages,
    heavy clutter, and 12 goals."""
    cells = np.zeros((64, 64), dtype=bool)
    wall_x = 30
    cells[:, wall_x : wall_x + 3] = True
    for gap in (10, 48):
        cells[gap : gap + 4, wall_x : wall_x + 3] = False
    for x0, y0, w, h in [
        (6, 10, 7, 6),
        (14, 26, 6, 10),
        (4, 44, 8, 6),
        (20, 50, 6, 8),
        (36, 6, 8, 6),
        (40, 22, 6, 8),
        (52, 14, 6, 10),
        (38, 42, 8, 6),
        (52, 50, 7, 6),
        (20, 6, 5, 8),
    ]:
        cells[y0 : y0 + h, x0 : x0 + w] = True
    goals = GoalSet(
        [
            Point(4.5, 4.5),
            Point(24.5, 20.5),
            Point(4.5, 30.5),
            Point(14.5, 60.5),
            Point(27.5, 40.5),
            Point(10.5, 22.5),
            Point(34.5, 18.5),
            Point(60.5, 4.5),
            Point(48.5, 30.5),
            Point(61.5, 40.5),
            Point(36.5, 56.5),
            Point(60.5, 60.5),
        ]
    )
    return Scenario("complex", GridMap(cells), goals)


BUILTIN_SCENARIOS = {"simple": simple_scenario, "complex": complex_scenario}


def builtin_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise InvalidArgument(
            f"unknown scenario {name!r}; choose from {sorted(BUILTIN_SCENARIOS)}"
        ) from None


def narrow_passage_map(
    seed: int,
    width: int = 64,
    height: int = 64,
    n_walls: int = 2,
    gap_cells: int = 2,
    wall_thickness: int = 3,
) -> GridMap:
    """Thick vertical walls with small randomly placed gaps; deterministic per seed.

    Walls thicker than the dilation radius keep path-dilated regions from
    bleeding into the far side of a wall.
    """
    rng = np.random.default_rng(seed)
    cells = np.zeros((height, width), dtype=bool)
    spacing = width // (n_walls + 1)
    for w in range(n_walls):
        x = spacing * (w + 1)
        cells[:, x : x + wall_thickness] = True
        gap = int(rng.integers(1, height - gap_cells - 1))
        cells[gap : gap + gap_cells, x : x + wall_thickness] = False
    return GridMap(cells)


def narrow_passage_instance(seed: int, width: int = 64, height: int = 64):
    """(map, start, goal) with the endpoints in the outermost chambers."""
    grid = narrow_passage_map(seed, width, height)
    rng = np.random.default_rng(seed ^ 0x9E3779B97F4A7C15)
    sy = int(rng.integers(1, height - 1))
    gy = int(rng.integers(1, height - 1))
    return grid, Point(1.5, sy + 0.5), Point(width - 1.5, gy + 0.5)


def comb_map(
    seed: int,
    width: int = 64,
    height: int = 64,
    n_teeth: int = 5,
    tooth_depth: float = 0.8,
    min_density: float = 0.25,
) -> GridMap:
    """Comb-shaped walls plus random rectangles filled to a density floor.

    Teeth alternate from the top and bottom edges, leaving pockets whose
    inside/outside goal pairs are close in a straight line but far apart
    along any feasible route. Deterministic per seed; retries tooth layouts
    that wall off the map entirely.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        cells = np.zeros((height, width), dtype=bool)
        depth = int(height * tooth_depth)
        for t in range(n_teeth):
            pos = int(rng.integers(6, width - 6))
            if t % 2 == 0:
                cells[:depth, pos : pos + 2] = True
            else:
                cells[height - depth :, pos : pos + 2] = True
        while cells.mean() < min_density:
            w = int(rng.integers(3, 10))
            h = int(rng.integers(3, 10))
            x0 = int(rng.integers(0, width - w))
            y0 = int(rng.integers(0, height - h))
            cells[y0 : y0 + h, x0 : x0 + w] = True
        if not cells.all():
            return GridMap(cells)
    raise ValueError(f"comb_map(seed={seed}) could not produce a map with free cells")
