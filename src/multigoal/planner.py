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

from .errors import FormatError, InvalidArgument, NoPathFound
from .grid import GridMap, Point, check_endpoints, check_seed, read_rows, write_rows

_REWIRE_EPS = 1e-12
# Tree allocates its node arrays for the whole sample budget up front
MAX_SAMPLES = 10**7


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
            raise InvalidArgument("step_size must be positive")
        samples = self.max_samples
        if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
            raise InvalidArgument(f"max_samples must be an integer, got {samples!r}")
        if self.max_samples < 1:
            raise InvalidArgument("max_samples must be at least 1")
        if self.max_samples > MAX_SAMPLES:
            raise InvalidArgument(
                f"max_samples must be at most {MAX_SAMPLES}, got {self.max_samples}"
            )
        if not 0.0 <= self.k <= 1.0:
            raise InvalidArgument("k must lie in [0, 1]")
        if not self.goal_tolerance >= 0:
            raise InvalidArgument("goal_tolerance must be nonnegative")
        if not self.rewire_radius > 0:
            raise InvalidArgument("rewire_radius must be positive")
        if not 0.0 <= self.mask_threshold <= 1.0:
            raise InvalidArgument("mask_threshold must lie in [0, 1]")
        check_seed(self.seed)

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
    """An exploring tree rooted at the start point, holding at most capacity nodes.

    Node coordinates sit in two float arrays for the nearest and near
    queries, and again in the xs and ys float lists for scalar reads; points
    holds each node's Point for collision checks and chains.
    """

    def __init__(self, root: Point, capacity: int):
        self._x = np.empty(capacity, dtype=np.float64)
        self._y = np.empty(capacity, dtype=np.float64)
        self._x[0] = root.x
        self._y[0] = root.y
        self.xs = [float(root.x)]
        self.ys = [float(root.y)]
        # (x, y, size, squared distances) of the last nearest query, for near
        self._last = None
        self.points = [Point(float(root.x), float(root.y))]
        self.size = 1
        self.parents = [-1]
        self.costs = [0.0]
        self.children: list[list[int]] = [[]]

    def add(self, p: Point, parent: int, cost: float) -> int:
        """Append p itself (the planners build it from floats) under parent."""
        idx = self.size
        self._x[idx] = p.x
        self._y[idx] = p.y
        self.xs.append(p.x)
        self.ys.append(p.y)
        self.points.append(p)
        self.size += 1
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        self.children[parent].append(idx)
        return idx

    def nearest(self, x: float, y: float) -> int:
        """Index of the node closest to (x, y); ties go to the lower index."""
        d2 = self._dist2(x, y)
        self._last = (x, y, self.size, d2)
        return int(d2.argmin())

    def near(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of the nodes within radius of (x, y), ascending.

        Reuses the distances of the last nearest query when it asked about
        the same point on a tree of the same size.
        """
        last = self._last
        if last is not None and last[0] == x and last[1] == y and last[2] == self.size:
            d2 = last[3]
        else:
            d2 = self._dist2(x, y)
        return (d2 <= radius * radius).nonzero()[0]

    def _dist2(self, x: float, y: float) -> np.ndarray:
        """Squared distance of every node to (x, y), computed in place: the
        same bits as np.square(dx) + np.square(dy)."""
        dx = self._x[: self.size] - x
        dy = self._y[: self.size] - y
        dx *= dx
        dy *= dy
        dx += dy
        return dx

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
            raise InvalidArgument("polyline needs at least 2 points")
        self.points = pts
        self.length = path_cost(pts)

    def __eq__(self, other):
        return isinstance(other, PathPolyline) and self.points == other.points

    def __repr__(self):
        return f"PathPolyline({len(self.points)} points, length={self.length:.3f})"

    def reverse(self) -> "PathPolyline":
        return PathPolyline(self.points[::-1])


def path_cost(pts) -> float:
    """Length of the polyline through a sequence of points: the sum of its
    Euclidean segment lengths."""
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y)
    return total


def save_path(path, poly: PathPolyline) -> None:
    write_rows(path, ((p.x, p.y) for p in poly.points))


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


def _draw(cells: np.ndarray, goal_xy: tuple[float, float], k: float, rng) -> tuple[float, float]:
    """One hybrid-sampler draw: goal_xy with probability k, otherwise a
    uniform point inside a uniformly chosen cell of cells.

    The rng calls keep a fixed order (goal test, cell, x offset, y offset);
    every seeded path depends on it.
    """
    if rng.random() > k:
        i = rng.integers(len(cells))
        return cells.item(i, 0) + rng.random(), cells.item(i, 1) + rng.random()
    return goal_xy


def _steer(ax: float, ay: float, tx: float, ty: float, step: float) -> tuple[float, float, float]:
    """The point at most step from (ax, ay) toward (tx, ty), and its distance."""
    d = math.hypot(ax - tx, ay - ty)
    if d > step:
        f = step / d
        tx, ty = ax + f * (tx - ax), ay + f * (ty - ay)
        d = math.hypot(ax - tx, ay - ty)
    return tx, ty, d


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
    check_endpoints(grid, start, goal)
    mask.check_shape(grid)
    rng = np.random.default_rng(cfg.seed)
    cells = _region_cells(mask, cfg, grid.free_cells())

    tree = Tree(start, cfg.max_samples + 1)
    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        return _finish([start], goal), 0, tree

    points, costs = tree.points, tree.costs
    goal_xy = gx, gy = float(goal.x), float(goal.y)
    for samples in range(1, cfg.max_samples + 1):
        tx, ty = _draw(cells, goal_xy, cfg.k, rng)
        near_idx = tree.nearest(tx, ty)
        near_pt = points[near_idx]
        x, y, d = _steer(near_pt.x, near_pt.y, tx, ty, cfg.step_size)
        if d == 0.0:
            continue
        new_pt = Point(x, y)  # the one Point a sample builds, once the step moves
        if not grid.segment_clear(near_pt, new_pt):
            continue
        idx = tree.add(new_pt, near_idx, costs[near_idx] + d)
        if math.hypot(x - gx, y - gy) <= cfg.goal_tolerance and grid.segment_clear(new_pt, goal):
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
    check_endpoints(grid, start, goal)
    rng = np.random.default_rng(cfg.seed)
    cells = grid.free_cells()
    tree = Tree(start, cfg.max_samples + 1)
    points, costs, xs, ys = tree.points, tree.costs, tree.xs, tree.ys
    candidates: dict[int, float] = {}
    first_length = None

    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        candidates[0] = start.distance_to(goal)
        first_length = candidates[0]

    goal_xy = gx, gy = float(goal.x), float(goal.y)
    for _ in range(cfg.max_samples):
        tx, ty = _draw(cells, goal_xy, cfg.k, rng)
        near_idx = tree.nearest(tx, ty)
        nx, ny, d = _steer(xs[near_idx], ys[near_idx], tx, ty, cfg.step_size)
        if d == 0.0:
            continue
        new_pt = Point(nx, ny)
        if not grid.is_free(new_pt):
            continue

        # an unmoved sample asks near about nearest's point: the tree reuses its distances
        neighbors = tree.near(nx, ny, cfg.rewire_radius).tolist()
        if near_idx not in neighbors:
            neighbors.append(near_idx)
        # one distance per neighbour, shared by choose-parent and rewiring
        dists = [math.hypot(xs[i] - nx, ys[i] - ny) for i in neighbors]
        # the cheapest parent first; (cost, index) pairs are unique, so the
        # sorted fallback checks the same segments in the same order
        options = [(costs[i] + d, i) for i, d in zip(neighbors, dists)]
        new_cost, parent = min(options)
        if not grid.segment_clear(points[parent], new_pt):
            parent = -1
            for new_cost, i in sorted(options)[1:]:
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

        to_goal = math.hypot(nx - gx, ny - gy)
        if to_goal <= cfg.goal_tolerance and grid.segment_clear(new_pt, goal):
            candidates[idx] = to_goal
            if first_length is None:
                first_length = new_cost + candidates[idx]

    if not candidates:
        raise NoPathFound(f"no path within {cfg.max_samples} samples")
    best = min(candidates, key=lambda i: (tree.costs[i] + candidates[i], i))
    return _finish(tree.chain(best), goal), cfg.max_samples, first_length, tree


def _finish(points: list[Point], goal: Point) -> PathPolyline:
    """The polyline through points to goal, with float end points like every
    tree node, whatever the caller's start and goal hold."""
    points = [Point(float(points[0].x), float(points[0].y)), *points[1:]]
    if points[-1] != goal:
        points.append(Point(float(goal.x), float(goal.y)))
    return PathPolyline(points)
