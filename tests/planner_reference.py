"""Point-based versions of the guided RRT and RRT* loops, the references that
the package's float-pair loops are tested against for exact equality.

Every sample builds its target and steered point as Point objects, and the
tree keeps an (n, 2) coordinate table queried with np.square sums.
"""

import math

import numpy as np

from multigoal.errors import NoPathFound
from multigoal.grid import Point, check_endpoints
from multigoal.planner import _REWIRE_EPS, _finish, _region_cells


class Tree:
    """An exploring tree rooted at the start point, holding at most capacity nodes."""

    def __init__(self, root, capacity):
        self._xy = np.empty((capacity, 2), dtype=np.float64)
        self._xy[0] = (root.x, root.y)
        self.points = [Point(float(root.x), float(root.y))]
        self.size = 1
        self.parents = [-1]
        self.costs = [0.0]
        self.children = [[]]

    def add(self, p, parent, cost):
        idx = self.size
        self._xy[idx] = (p.x, p.y)
        self.points.append(Point(float(p.x), float(p.y)))
        self.size += 1
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        self.children[parent].append(idx)
        return idx

    def nearest(self, p):
        d2 = np.square(self._xy[: self.size, 0] - p.x) + np.square(self._xy[: self.size, 1] - p.y)
        return int(np.argmin(d2))

    def near(self, p, radius):
        d2 = np.square(self._xy[: self.size, 0] - p.x) + np.square(self._xy[: self.size, 1] - p.y)
        return np.nonzero(d2 <= radius * radius)[0]

    def reparent(self, idx, new_parent, new_cost):
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

    def chain(self, idx):
        rev = []
        while idx >= 0:
            rev.append(self.points[idx])
            idx = self.parents[idx]
        rev.reverse()
        return rev


def steer(frm, to, step):
    """Move from frm toward to by at most step."""
    d = frm.distance_to(to)
    if d <= step:
        return to
    f = step / d
    return Point(frm.x + f * (to.x - frm.x), frm.y + f * (to.y - frm.y))


def _sample_point(cells, rng):
    x, y = cells[int(rng.integers(len(cells)))]
    dx = rng.random()
    dy = rng.random()
    return Point(float(x) + dx, float(y) + dy)


def hybrid_draw(cells, goal, cfg, rng):
    u = rng.random()
    if u > cfg.k:
        return _sample_point(cells, rng)
    return goal


def rrt(grid, start, goal, mask, cfg):
    """(polyline, samples used, tree) of the guided RRT."""
    check_endpoints(grid, start, goal)
    mask.check_shape(grid)
    rng = np.random.default_rng(cfg.seed)
    cells = _region_cells(mask, cfg, grid.free_cells())

    tree = Tree(start, cfg.max_samples + 1)
    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        return _finish([start], goal), 0, tree

    for samples in range(1, cfg.max_samples + 1):
        target = hybrid_draw(cells, goal, cfg, rng)
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


def rrt_star(grid, start, goal, cfg):
    """(polyline, samples used, first solution length, tree) of RRT*."""
    check_endpoints(grid, start, goal)
    rng = np.random.default_rng(cfg.seed)
    cells = grid.free_cells()
    tree = Tree(start, cfg.max_samples + 1)
    points, costs = tree.points, tree.costs
    candidates = {}
    first_length = None

    if start.distance_to(goal) <= cfg.goal_tolerance and grid.segment_clear(start, goal):
        candidates[0] = start.distance_to(goal)
        first_length = candidates[0]

    for _ in range(cfg.max_samples):
        target = hybrid_draw(cells, goal, cfg, rng)
        near_idx = tree.nearest(target)
        near_pt = points[near_idx]
        new_pt = steer(near_pt, target, cfg.step_size)
        if near_pt.distance_to(new_pt) == 0.0 or not grid.is_free(new_pt):
            continue

        neighbors = tree.near(new_pt, cfg.rewire_radius).tolist()
        if near_idx not in neighbors:
            neighbors.append(near_idx)
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
