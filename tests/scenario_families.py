"""The seeded map families the acceptance suite draws from: comb maps, whose
pockets put goals close in a straight line but far apart along any route,
and two-wall narrow-passage instances. tests/test_scenarios.py pins their
maps by sha256."""

import numpy as np

from multigoal import GridMap, Point


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
