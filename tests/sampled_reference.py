"""References the grid module is tested against: a sampled collision check,
an exact rational one and the cell walker for GridMap.segment_clear, and the
list-of-Points goal placement for place_goals."""

import math
from fractions import Fraction

import numpy as np

from multigoal.errors import InvalidArgument, PlacementFailed
from multigoal.grid import _RETRY_BUDGET, GoalSet, Point, check_seed


def segment_free(grid, a, b, resolution):
    """True iff every sample at spacing <= resolution along ab lies in free cells.

    Endpoints are sorted canonically before interpolation so the result is
    symmetric in (a, b). Sample count is ceil(|ab| / resolution) + 1.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    for p in (a, b):
        if not (0.0 <= p.x < grid.width and 0.0 <= p.y < grid.height):
            raise InvalidArgument(f"segment endpoint ({p.x}, {p.y}) out of bounds")
    if (b.x, b.y) < (a.x, a.y):
        a, b = b, a
    dist = a.distance_to(b)
    n = int(math.ceil(dist / resolution)) + 1
    t = np.linspace(0.0, 1.0, n)
    xs = a.x + t * (b.x - a.x)
    ys = a.y + t * (b.y - a.y)
    cols = np.floor(xs).astype(np.intp)
    rows = np.floor(ys).astype(np.intp)
    return not grid.cells[rows, cols].any()


def exact_clear(grid, a, b):
    """True iff no cell floor(p(t)), t in [0, 1], of the segment ab is blocked,
    in exact rational arithmetic on the floats' own values.

    floor(p(t)) is constant between the instants at which a coordinate
    crosses an integer, so it is read at those instants, at 0 and 1, and
    halfway between each consecutive two.
    """
    ax, ay, bx, by = (Fraction(v) for v in (a.x, a.y, b.x, b.y))
    dx, dy = bx - ax, by - ay
    ts = {Fraction(0), Fraction(1)}
    for start, end, d in ((ax, bx, dx), (ay, by, dy)):
        if d:
            low, high = min(start, end), max(start, end)
            ts.update((k - start) / d for k in range(math.ceil(low), math.floor(high) + 1))
    ts = sorted(ts)
    ts += [(s + t) / 2 for s, t in zip(ts, ts[1:])]
    return not any(grid.cells[math.floor(ay + t * dy), math.floor(ax + t * dx)] for t in ts)


def walk_segment(grid, a, b, rows=None):
    """GridMap.segment_clear as a cell walk from a's cell toward b's, with no
    cell box test: every crossing, corner crossings included, is stepped.

    rows is the table read as rows[y][x], grid.cells.tolist() by default.
    """
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    width, height = grid.width, grid.height
    if not (0.0 <= ax < width and 0.0 <= ay < height):
        raise InvalidArgument(f"segment endpoint ({ax}, {ay}) out of bounds")
    if not (0.0 <= bx < width and 0.0 <= by < height):
        raise InvalidArgument(f"segment endpoint ({bx}, {by}) out of bounds")
    if rows is None:
        rows = grid.cells.tolist()
    # int() is floor() for the in-bounds, non-negative coordinates
    x, y = int(ax), int(ay)
    ex, ey = int(bx), int(by)
    if rows[y][x] or rows[ey][ex]:
        return False
    dx = bx - ax
    dy = by - ay
    step_x = 1 if dx > 0 else -1 if dx < 0 else 0
    step_y = 1 if dy > 0 else -1 if dy < 0 else 0
    t_max_x = math.inf if step_x == 0 else ((x + (step_x > 0)) - ax) / dx
    t_max_y = math.inf if step_y == 0 else ((y + (step_y > 0)) - ay) / dy
    t_delta_x = math.inf if step_x == 0 else abs(1.0 / dx)
    t_delta_y = math.inf if step_y == 0 else abs(1.0 / dy)
    for _ in range(width + height + 4):
        if x == ex and y == ey:
            return True
        if t_max_x >= 1.0 and t_max_y >= 1.0:
            # remaining crossings lie at or beyond the endpoint, whose
            # cell was already validated
            return True
        if t_max_x < t_max_y:
            x += step_x
            t_max_x += t_delta_x
        elif t_max_y < t_max_x:
            y += step_y
            t_max_y += t_delta_y
        else:
            # exact corner crossing: the corner instant lies in the cell
            # whose indices are the floor of the corner point
            if rows[y + (step_y > 0)][x + (step_x > 0)]:
                return False
            x += step_x
            y += step_y
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        if rows[y][x]:
            return False
    return x == ex and y == ey


def place_goals(grid, m, seed, min_separation=0.0):
    """place_goals as a list of chosen cells and Points: the same rng calls,
    comparisons and messages, each separation test a Point.distance_to."""
    if m < 2:
        raise InvalidArgument(f"need m >= 2 goals, got {m}")
    if not 0 <= min_separation < math.inf:
        raise InvalidArgument(f"min_separation must be finite and >= 0, got {min_separation}")
    s = min_separation
    if m * math.pi * s * s / 4 > (grid.width + s) * (grid.height + s):
        raise PlacementFailed(
            f"{m} goals with separation {s} cannot fit a {grid.width}x{grid.height} map: "
            f"m*pi*s^2/4 > (W+s)*(H+s)"
        )
    rng = np.random.default_rng(check_seed(seed))
    cells = grid.largest_component_cells()
    if len(cells) < m:
        raise PlacementFailed(f"component has {len(cells)} cells, cannot host {m} goals")
    for _ in range(_RETRY_BUDGET):
        chosen = []
        points = []
        for _ in range(_RETRY_BUDGET * m):
            cx, cy = (int(v) for v in cells[int(rng.integers(len(cells)))])
            if (cx, cy) in chosen:
                continue
            p = Point(cx + 0.5, cy + 0.5)
            if all(p.distance_to(q) >= min_separation for q in points):
                chosen.append((cx, cy))
                points.append(p)
                if len(points) == m:
                    return GoalSet(points)
    raise PlacementFailed(
        f"could not place {m} goals with separation {min_separation} "
        f"after {_RETRY_BUDGET} restarts"
    )
