"""Built-in benchmark scenarios."""

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
