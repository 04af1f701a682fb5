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


def narrow_passage_instance(seed: int):
    """(map, start, goal) on a 64x64 map split by two thick vertical walls,
    each pierced by one randomly placed 2-cell gap; the endpoints lie in the
    outermost chambers. Deterministic per seed.

    The 3-cell walls are thicker than the dilation radius, which keeps
    path-dilated regions from bleeding into the far side of a wall.
    """
    size, n_walls, gap_cells, wall_thickness = 64, 2, 2, 3
    rng = np.random.default_rng(seed)
    cells = np.zeros((size, size), dtype=bool)
    spacing = size // (n_walls + 1)
    for w in range(n_walls):
        x = spacing * (w + 1)
        cells[:, x : x + wall_thickness] = True
        gap = int(rng.integers(1, size - gap_cells - 1))
        cells[gap : gap + gap_cells, x : x + wall_thickness] = False
    rng = np.random.default_rng(seed ^ 0x9E3779B97F4A7C15)
    sy = int(rng.integers(1, size - 1))
    gy = int(rng.integers(1, size - 1))
    return GridMap(cells), Point(1.5, sy + 0.5), Point(size - 1.5, gy + 0.5)


def comb_map(seed: int) -> GridMap:
    """A 64x64 comb: five 2-cell-wide teeth reaching 80% of the height, plus
    random rectangles until at least 25% of the cells are blocked.

    Teeth alternate from the top and bottom edges, leaving pockets whose
    inside/outside goal pairs are close in a straight line but far apart
    along any feasible route. Deterministic per seed; retries tooth layouts
    that wall off the map entirely.
    """
    size, n_teeth, depth, min_density = 64, 5, 51, 0.25
    rng = np.random.default_rng(seed)
    for _ in range(100):
        cells = np.zeros((size, size), dtype=bool)
        for t in range(n_teeth):
            pos = int(rng.integers(6, size - 6))
            if t % 2 == 0:
                cells[:depth, pos : pos + 2] = True
            else:
                cells[size - depth :, pos : pos + 2] = True
        while cells.mean() < min_density:
            w = int(rng.integers(3, 10))
            h = int(rng.integers(3, 10))
            x0 = int(rng.integers(0, size - w))
            y0 = int(rng.integers(0, size - h))
            cells[y0 : y0 + h, x0 : x0 + w] = True
        if not cells.all():
            return GridMap(cells)
    raise ValueError(f"comb_map(seed={seed}) could not produce a map with free cells")
