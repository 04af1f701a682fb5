"""Sampling-based leg planners: region-guided hybrid-sampling RRT and RRT* baselines.

The hybrid sampler mixes a heuristic sampler (uniform over cells of the
promising region) with a goal-biased sampler controlled by a coefficient k:
with probability k the goal itself is returned, otherwise a random point
inside a random promising cell. The guided RRT stops at the first feasible
connection; RRT* runs its full sample budget and keeps the best
goal-connected path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlockedPoint, FormatError, NoPathFound
from .grid import GridMap, Point, read_rows

_REWIRE_EPS = 1e-12


@dataclass(frozen=True)
class PlannerConfig:
    step_size: float = 2.0
    max_samples: int = 2000
    k: float = 0.1  # probability of drawing the goal instead of a region sample
    goal_tolerance: float = 2.0
    rewire_radius: float = 6.0
    mask_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0:  # also rejects nan
            raise ValueError("step_size must be positive")
        if self.max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        if not 0.0 <= self.k <= 1.0:
            raise ValueError("k must lie in [0, 1]")
        if not self.goal_tolerance >= 0:
            raise ValueError("goal_tolerance must be nonnegative")
        if not self.rewire_radius > 0:
            raise ValueError("rewire_radius must be positive")
        if not 0.0 <= self.mask_threshold <= 1.0:
            raise ValueError("mask_threshold must lie in [0, 1]")

    @classmethod
    def for_map(cls, grid: GridMap, seed: int = 0, **overrides) -> "PlannerConfig":
        """Defaults scaled to the map: step 2% of the max dimension, tolerance
        equal to the step, rewire radius three steps."""
        step = 0.02 * max(grid.width, grid.height)
        cfg = cls(
            step_size=step,
            goal_tolerance=step,
            rewire_radius=3.0 * step,
            seed=seed,
        )
        return replace(cfg, **overrides) if overrides else cfg


class Tree:
    """An exploring tree rooted at the start point, holding at most capacity nodes."""

    def __init__(self, root: Point, capacity: int):
        self._xy = np.empty((capacity, 2), dtype=np.float64)
        self._xy[0] = (root.x, root.y)
        # each node's Point, built once: the planner loops read these, not _xy
        self.points = [Point(float(root.x), float(root.y))]
        self.size = 1
        self.parents = [-1]
        self.costs = [0.0]
        self.children: list[list[int]] = [[]]

    def add(self, p: Point, parent: int, cost: float) -> int:
        idx = self.size
        self._xy[idx] = (p.x, p.y)
        self.points.append(Point(float(p.x), float(p.y)))
        self.size += 1
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        self.children[parent].append(idx)
        return idx

    def nearest(self, p: Point) -> int:
        """Index of the node closest to p; ties go to the lower index."""
        d2 = np.square(self._xy[: self.size, 0] - p.x) + np.square(self._xy[: self.size, 1] - p.y)
        return int(np.argmin(d2))

    def near(self, p: Point, radius: float) -> np.ndarray:
        d2 = np.square(self._xy[: self.size, 0] - p.x) + np.square(self._xy[: self.size, 1] - p.y)
        return np.nonzero(d2 <= radius * radius)[0]

    def reparent(self, idx: int, new_parent: int, new_cost: float) -> None:
        """Attach idx under new_parent and shift the whole subtree's costs."""
        old_parent = self.parents[idx]
        self.children[old_parent].remove(idx)
        self.parents[idx] = new_parent
        self.children[new_parent].append(idx)
        delta = new_cost - self.costs[idx]
        stack = [idx]
        while stack:
            v = stack.pop()
            self.costs[v] += delta
            stack.extend(self.children[v])

    def chain(self, idx: int) -> list[Point]:
        """Points from the root to idx."""
        rev = []
        while idx >= 0:
            rev.append(self.points[idx])
            idx = self.parents[idx]
        rev.reverse()
        return rev


class PathPolyline:
    """A piecewise-linear path; length is the sum of segment lengths."""

    def __init__(self, points):
        pts = tuple(points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 points")
        self.points = pts
        self.length = path_cost(self)

    def __eq__(self, other):
        return isinstance(other, PathPolyline) and self.points == other.points

    def __repr__(self):
        return f"PathPolyline({len(self.points)} points, length={self.length:.3f})"

    def reverse(self) -> "PathPolyline":
        return PathPolyline(self.points[::-1])


def path_cost(p) -> float:
    """Polyline length: sum of Euclidean segment lengths."""
    pts = p.points if isinstance(p, PathPolyline) else tuple(p)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y)
    return total


def save_path(path, poly: PathPolyline) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for p in poly.points:
            f.write(f"{p.x!r},{p.y!r}\n")


def load_path(path) -> PathPolyline:
    points = []
    for row, line in read_rows(path):
        try:
            x, y = (float(v) for v in line.split(","))
            points.append(Point(x, y))
        except ValueError:
            raise FormatError(
                f"{path} row {row}: expected 'x,y' with two finite numbers, got {line!r}"
            ) from None
    if len(points) < 2:
        raise FormatError(f"{path}: a path needs at least 2 points, got {len(points)}")
    return PathPolyline(points)


def steer(frm: Point, to: Point, step: float) -> Point:
    """Move from frm toward to by at most step."""
    if step <= 0:
        raise ValueError("step must be positive")
    d = frm.distance_to(to)
    if d <= step:
        return to
    f = step / d
    return Point(frm.x + f * (to.x - frm.x), frm.y + f * (to.y - frm.y))


def _sample_point(cells: np.ndarray, rng) -> Point:
    """Uniform point inside a uniformly chosen cell of cells."""
    x, y = cells[int(rng.integers(len(cells)))]
    dx = rng.random()
    dy = rng.random()
    return Point(float(x) + dx, float(y) + dy)


def _hybrid_draw(cells, goal, cfg, rng) -> Point:
    u = rng.random()
    if u > cfg.k:
        return _sample_point(cells, rng)
    return goal


def _region_cells(mask, cfg: PlannerConfig, fallback_cells):
    """Cells the hybrid sampler draws from: those at or above mask_threshold,
    or fallback_cells when none qualifies."""
    cells = mask.cells_at_least(cfg.mask_threshold)
    return cells if len(cells) else fallback_cells


def plan_leg_rrt(
    grid: GridMap, start: Point, goal: Point, mask, cfg: PlannerConfig
) -> tuple[PathPolyline, int]:
    """Region-guided RRT between two goals; stops at the first feasible path.

    Returns (polyline, samples_used); deterministic per cfg.seed. Raises
    NoPathFound once max_samples draws are spent.
    """
    poly, samples, _tree = _rrt(grid, start, goal, mask, cfg)
    return poly, samples


def _rrt(grid, start, goal, mask, cfg):
    _check_endpoints(grid, start, goal)
    mask.check_shape(grid)
    rng = np.random.default_rng(cfg.seed)
    cells = _region_cells(mask, cfg, grid.free_cells())

    tree = Tree(start, cfg.max_samples + 1)
    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        return _finish([start], goal), 0, tree

    for samples in range(1, cfg.max_samples + 1):
        target = _hybrid_draw(cells, goal, cfg, rng)
        near_idx = tree.nearest(target)
        near_pt = tree.points[near_idx]
        new_pt = steer(near_pt, target, cfg.step_size)
        d = near_pt.distance_to(new_pt)
        if d == 0.0:
            continue
        if not grid.segment_clear(near_pt, new_pt):
            continue
        idx = tree.add(new_pt, near_idx, tree.costs[near_idx] + d)
        if new_pt.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(new_pt, goal):
            return _finish(tree.chain(idx), goal), samples, tree
    raise NoPathFound(f"no path within {cfg.max_samples} samples")


def plan_leg_rrt_star(
    grid: GridMap, start: Point, goal: Point, cfg: PlannerConfig
) -> tuple[PathPolyline, int]:
    """RRT* with choose-parent and rewiring; no region mask.

    Samples mix uniform free-cell draws with the same goal bias k the other
    planners use, runs the full sample budget, and returns the best
    goal-connected path.
    """
    poly, samples, _first, _tree = _rrt_star(grid, start, goal, cfg)
    return poly, samples


def _rrt_star(grid, start, goal, cfg):
    _check_endpoints(grid, start, goal)
    rng = np.random.default_rng(cfg.seed)
    cells = grid.free_cells()
    tree = Tree(start, cfg.max_samples + 1)
    points, costs = tree.points, tree.costs
    candidates: dict[int, float] = {}
    first_length = None

    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        candidates[0] = start.distance_to(goal)
        first_length = candidates[0]

    for _ in range(cfg.max_samples):
        target = _hybrid_draw(cells, goal, cfg, rng)
        near_idx = tree.nearest(target)
        near_pt = points[near_idx]
        new_pt = steer(near_pt, target, cfg.step_size)
        if near_pt.distance_to(new_pt) == 0.0 or not grid.is_free(new_pt):
            continue

        neighbors = tree.near(new_pt, cfg.rewire_radius).tolist()
        if near_idx not in neighbors:
            neighbors.append(near_idx)
        # one distance per neighbour, shared by choose-parent and rewiring
        nx, ny = new_pt.x, new_pt.y
        dists = [math.hypot(points[i].x - nx, points[i].y - ny) for i in neighbors]
        parent = -1
        for new_cost, i in sorted((costs[i] + d, i) for i, d in zip(neighbors, dists)):
            if grid.segment_clear(points[i], new_pt):
                parent = i
                break
        if parent < 0:
            continue
        idx = tree.add(new_pt, parent, new_cost)

        for i, d in zip(neighbors, dists):
            if i == parent:
                continue
            improved = new_cost + d
            # costs[i] is read live: an earlier reparent may have shifted it
            if improved < costs[i] - _REWIRE_EPS and grid.segment_clear(new_pt, points[i]):
                tree.reparent(i, idx, improved)

        if new_pt.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(new_pt, goal):
            candidates[idx] = new_pt.distance_to(goal)
            if first_length is None:
                first_length = new_cost + candidates[idx]

    if not candidates:
        raise NoPathFound(f"no path within {cfg.max_samples} samples")
    best = min(candidates, key=lambda i: (tree.costs[i] + candidates[i], i))
    return _finish(tree.chain(best), goal), cfg.max_samples, first_length, tree


def _check_endpoints(grid, start, goal):
    if not grid.is_free(start):
        raise BlockedPoint(f"start ({start.x}, {start.y}) is not free")
    if not grid.is_free(goal):
        raise BlockedPoint(f"goal ({goal.x}, {goal.y}) is not free")


def _finish(points: list[Point], goal: Point) -> PathPolyline:
    if points[-1] != goal:
        points = list(points) + [goal]
    return PathPolyline(points)
