"""Pairwise distance and promising-region estimation, and weight-matrix assembly.

Estimators map every goal pair of a goal set to a (distance, region mask) estimate.
Three strategies are provided: straight-line distance, an exact 8-connected
grid oracle (Dijkstra shortest path dilated into a region), and externally
produced predictions loaded from files.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import FormatError, InvalidArgument, Unreachable, naming
from .grid import (
    GoalSet,
    GridMap,
    Point,
    cells_where,
    check_endpoints,
    check_real,
    is_2d,
    read_table,
    write_rows,
)
from .pgm import read_pgm, write_pgm

SQRT2 = math.sqrt(2.0)

# Fixed expansion order; deterministic tie-breaking depends on it.
# (dx, dy, step cost) for E, N, W, S, NE, NW, SW, SE with N = -y.
NEIGHBORS_8 = (
    (1, 0, 1.0),
    (0, -1, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (1, -1, SQRT2),
    (-1, -1, SQRT2),
    (-1, 1, SQRT2),
    (1, 1, SQRT2),
)


class RegionMask:
    """Per-cell promise values in [0, 1] over a map-sized table."""

    def __init__(self, values: np.ndarray):
        if not is_2d(values):
            raise InvalidArgument("mask values must be 2D")
        check_real(values, "mask values")
        arr = np.array(values, dtype=np.float64)
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # also rejects nan
            raise InvalidArgument("mask values must lie in [0, 1]")
        arr.setflags(write=False)
        self.values = arr
        self.height, self.width = arr.shape

    def __eq__(self, other):
        return isinstance(other, RegionMask) and bool(np.array_equal(self.values, other.values))

    def check_shape(self, grid: GridMap) -> None:
        if (self.height, self.width) != (grid.height, grid.width):
            raise InvalidArgument(
                f"mask is {self.width}x{self.height}, map is {grid.width}x{grid.height}"
            )

    def cells_at_least(self, threshold: float) -> np.ndarray:
        """(N, 2) (x, y) indices of cells with value >= threshold, row-major.

        The array is read-only and cached per threshold: the values never change.
        """
        cache = self.__dict__.setdefault("_cells_at_least", {})
        if threshold not in cache:
            cache[threshold] = cells_where(self.values >= threshold)
        return cache[threshold]

    def to_u8(self) -> np.ndarray:
        return np.round(self.values * 255.0).astype(np.uint8)

    @classmethod
    def from_u8(cls, raster: np.ndarray) -> "RegionMask":
        return cls(raster.astype(np.float64) / 255.0)


@dataclass(frozen=True)
class PairEstimate:
    """Estimated path length (cell units) and promising region for one goal pair."""

    distance: float
    mask: RegionMask


class WeightMatrix:
    """Symmetric pairwise cost table with zero diagonal; input to the TSP solver."""

    def __init__(self, w: np.ndarray):
        if not is_2d(w):
            raise InvalidArgument("weight matrix must be a 2D table")
        check_real(w, "weights")
        arr = np.array(w, dtype=np.float64)
        if arr.shape[0] != arr.shape[1]:
            raise InvalidArgument(f"weight matrix must be square, got shape {arr.shape}")
        m = arr.shape[0]
        if m < 2:
            raise InvalidArgument(f"weight matrix needs at least 2 vertices, got {m}")
        if not np.isfinite(arr).all():
            raise InvalidArgument("weight matrix has non-finite entries")
        if (np.diag(arr) != 0.0).any():
            raise InvalidArgument("weight matrix diagonal must be exactly zero")
        if not (arr == arr.T).all():
            raise InvalidArgument("weight matrix must be exactly symmetric")
        off = arr[~np.eye(m, dtype=bool)]
        if (off <= 0.0).any():
            raise InvalidArgument("off-diagonal weights must be strictly positive")
        arr.setflags(write=False)
        self.w = arr
        self.m = m

    def __getitem__(self, ij) -> float:
        return float(self.w[ij])

    def __eq__(self, other):
        return isinstance(other, WeightMatrix) and bool(np.array_equal(self.w, other.w))

    def to_csv(self, path) -> None:
        write_rows(path, self.w.tolist())

    @classmethod
    def from_csv(cls, path) -> "WeightMatrix":
        rows = list(read_table(path, lambda fields: [float(v) for v in fields]))
        if not rows:
            raise FormatError(f"{path}: empty weight matrix")
        m = len(rows[0][1])
        for row, values in rows:
            if len(values) != m:
                raise FormatError(f"{path} row {row}: expected {m} columns, got {len(values)}")
        with naming(path, FormatError):
            return cls([values for _, values in rows])


@lru_cache(maxsize=16)
def _move_table(pw: int) -> list:
    """The moves a settled cell checks, by its arrival and its move code, for
    ids on a map padded to width pw: table[c - parent[c]][code] holds the id
    offsets of the orthogonal and of the diagonal moves to check, each in
    NEIGHBORS_8 order. The arrival is 0 at the start, whose rows hold every
    legal move, or one of the eight moves of NEIGHBORS_8; the list has
    2 * pw + 3 slots, so each of those nine offsets, negative ones counted
    from its end, reaches its own slot. Every other slot is None.

    An arrival u drops the moves with a component against it, and an
    orthogonal arrival also drops each perpendicular move v whose diagonal
    v - u is legal (see shortest_paths_from for why these checks all fail).
    """
    moves = [(dy * pw + dx, cost) for dx, dy, cost in NEIGHBORS_8]

    def offsets(code: int, step: float) -> tuple:
        return tuple(off for k, (off, cost) in enumerate(moves) if code >> k & 1 and cost == step)

    full = [(offsets(code, 1.0), offsets(code, SQRT2)) for code in range(256)]
    index = {(dx, dy): k for k, (dx, dy, _) in enumerate(NEIGHBORS_8)}
    table = [None] * (2 * pw + 3)
    table[0] = full
    for ux, uy, _ in NEIGHBORS_8:
        keep = 255
        perpendicular = []  # (bit of v, bit of the diagonal v - u)
        for k, (dx, dy, _) in enumerate(NEIGHBORS_8):
            if dx * ux < 0 or dy * uy < 0:
                keep ^= 1 << k
            elif not (dx * ux or dy * uy):
                perpendicular.append((k, index[dx - ux, dy - uy]))
        rows = []
        for code in range(256):
            kept = code & keep
            for k, j in perpendicular:
                if code >> j & 1:
                    kept &= ~(1 << k)
            rows.append(full[kept])
        table[uy * pw + ux] = rows
    return table


def _move_codes(grid: GridMap) -> bytes:
    """One code byte per cell id of the padded map: bit k is set when move k of
    NEIGHBORS_8 is legal from the cell. A move is legal when its target is
    free and, for a diagonal, both orthogonal cells are free; blocked cells
    get 0. Cached on the grid, like GridMap.free_cells.
    """
    if not hasattr(grid, "_move_codes"):
        h, w = grid.height, grid.width
        free = np.zeros((h + 4, w + 4), dtype=bool)  # two blocked rings: every shift stays inside
        free[2:-2, 2:-2] = ~grid.cells

        def shifted(dx, dy):  # free[y + dy, x + dx] for every cell of the padded map
            return free[1 + dy : h + 3 + dy, 1 + dx : w + 3 + dx]

        codes = np.zeros((h + 2, w + 2), dtype=np.uint8)
        for k, (dx, dy, _) in enumerate(NEIGHBORS_8):
            legal = shifted(dx, dy)
            if dx and dy:
                legal = legal & shifted(dx, 0) & shifted(0, dy)
            codes |= legal.astype(np.uint8) << k
        codes[~shifted(0, 0)] = 0
        grid._move_codes = codes.tobytes()
    return grid._move_codes


def shortest_paths_from(grid: GridMap, a: Point, targets, dist: list | None = None) -> list:
    """Shortest 8-connected cell-center paths from the cell of a to each target's cell.

    Orthogonal steps cost 1, diagonal steps sqrt(2); a diagonal move is
    forbidden when either adjacent orthogonal cell is blocked. Cells are popped
    from two FIFO queues, one for orthogonal and one for diagonal steps, in
    the order of a heap with FIFO tie-breaking; with the fixed neighbor order
    this breaks every tie, so every returned path is deterministic. The
    search stops once every target cell is settled.
    Since a settled cell never gets a new parent, and the run up to settling
    a target is the run a single-target search would make, each path equals
    the one a search for that target alone returns.

    dist, when given, is a bound list from _bounded_dist: each padded cell
    id's starting distance (all inf when None). A push into a cell is kept
    only below it, so a finite entry drops every push at or above it; that
    changes no path that the bound keeps (see grid_shortest_path). dist is
    consumed.

    Returns one (cell path, length) per target, in target order, or None for
    a target that cannot be reached. Cells are ids on the map padded by a
    one-cell blocked border; each cell's legal moves come from its move code
    (see _move_codes), so the inner loop tests neither bounds nor obstacles.

    A settled cell c checks only the legal moves that its arrival
    u = c - parent[c] leaves open (see _move_table); the start is its own
    parent and checks every legal move. Each move left out is one whose
    check, nd < dist[n] for the target n, fails in the search that checks
    every legal move. A failed check changes nothing, so by induction over
    the checks both searches make the same pushes and pops and end with the
    same dist list, paths and lengths. Let d_p be the parent's distance and
    d = fl(d_p + |u|) the cell's. dist entries only fall, so a check fails
    when n was offered a value, before c was settled, at least the margin
    below the one c would offer. An arrival drops:

    1. The parent, which holds d_p < d.
    2. Cells the parent checked. After an orthogonal arrival u, with v
       either perpendicular unit move: c - u + v, a diagonal from c, which
       the parent checked at fl(d_p + 1) when free, against c's
       fl(d + sqrt(2)); and c + v when the diagonal v - u is legal from c,
       that is when c - u + v and c + v are free, so that the parent checked
       c + v at fl(d_p + sqrt(2)), against c's fl(d + 1), about d_p + 2.
       After a diagonal arrival (dx, dy): c - (dx, 0) and c - (0, dy), free
       since the arrival was legal, which the parent checked at fl(d_p + 1),
       against c's fl(d + 1).
    3. The side diagonals c + (-dx, dy) and c + (dx, -dy) after a diagonal
       arrival. Take the first (the second is the same with the axes
       swapped): B = c - (dx, 0) is free, and the side diagonal
       T = B + (0, dy) is one orthogonal step from it. The parent's check
       of B left dist[B] <= v = fl(d_p + 1) < d.
       - If dist[B] is a pushed value, B pops and is settled before c, and
         checks T at fl(dist[B] + 1), about d_p + 2 at most.
       - Otherwise no push into B was kept, and dist[B] is B's entry in the
         _bounded_dist list, at most v. So every end (b, lim) whose box
         holds B has lim - h_b(B) <= v, with h_b the octile distance to b.
         An end whose box misses B has lim < |x_B - x_a| + |x_B - x_b| - 2,
         or the same in y, so lim - h_b(B) < Chebyshev(a, B) - 2 <= d_p - 1:
         h_b(B) is at least |x_B - x_b|, and Chebyshev(a, B) is at most
         Chebyshev(a, parent) + 1 <= d_p + 1, since a path is at least as
         long as it has steps. h_b changes by at most 1 per orthogonal step,
         so T's entry, the max over its ends of lim - h_b(T) and 0.0 outside
         them, is about d_p + 2 at most.
       Either way c's check at fl(d + sqrt(2)), about d_p + 2.83, fails.

    The smallest margin, 2 - sqrt(2) for the perpendicular moves, is far
    above the rounding of any of these sums, since grid.MAX_CELLS keeps
    every distance far below 2**51.
    """
    for b in targets:
        check_endpoints(grid, a, b)
    pw = grid.width + 2
    code = _move_codes(grid)
    table = _move_table(pw)

    def cell_id(p: Point) -> int:
        x, y = p.cell()
        return (y + 1) * pw + x + 1

    start = cell_id(a)
    pending: dict[int, float | None] = {cell_id(b): None for b in targets}
    left = len(pending)
    n = len(code)
    if dist is None:
        dist = [math.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    parent[start] = start
    # The heap of a plain Dijkstra, as two FIFO queues of (key, cell): every
    # key is d + 1 or d + sqrt(2) for the d just popped, popped keys never
    # decrease and float addition is monotone, so each queue is already in
    # (key, push order) and the heap minimum is the smaller head. On equal
    # keys the diagonal head came from a strictly smaller d, since
    # fl(d + sqrt(2)) > fl(d + 1) for d far below 2**51 (grid.MAX_CELLS keeps
    # every distance there), so it was pushed first and wins the tie. Keys
    # into a cell strictly decrease; an entry is stale unless its key is the
    # cell's distance.
    ortho: deque[tuple[float, int]] = deque()
    diag: deque[tuple[float, int]] = deque()
    push_ortho, pop_ortho = ortho.append, ortho.popleft
    push_diag, pop_diag = diag.append, diag.popleft
    d, c = 0.0, start

    while True:
        if d == dist[c]:
            if c in pending:
                pending[c] = d
                left -= 1
                if not left:
                    break
            ortho_moves, diag_moves = table[c - parent[c]][code[c]]
            nd = d + 1.0
            for off in ortho_moves:
                nc = c + off
                if nd < dist[nc]:
                    dist[nc] = nd
                    parent[nc] = c
                    push_ortho((nd, nc))
            nd = d + SQRT2
            for off in diag_moves:
                nc = c + off
                if nd < dist[nc]:
                    dist[nc] = nd
                    parent[nc] = c
                    push_diag((nd, nc))
        if diag and (not ortho or diag[0][0] <= ortho[0][0]):
            d, c = pop_diag()
        elif ortho:
            d, c = pop_ortho()
        else:
            break

    out = []
    for b in targets:
        c = cell_id(b)
        length = pending[c]
        if length is None:
            out.append(None)
            continue
        path = [c]
        while c != start:
            c = parent[c]
            path.append(c)
        out.append(([(c % pw - 1, c // pw - 1) for c in reversed(path)], length))
    return out


def _no_grid_path(a: Point, b: Point) -> Unreachable:
    return Unreachable(f"no grid path from cell {a.cell()} to cell {b.cell()}")


# Multiples f of the octile distance h(a) that grid_shortest_path tries as its
# bound on the path length before it searches without one.
_BOUND_FACTORS = (1.15, 1.5, 3.0)


def _limit(bound: float) -> float:
    """The bound on d + h(n) below which a search keeps a push for a path of
    length at most bound: the slack covers the rounding of d, h and bound."""
    return bound + 1e-6 * (1.0 + bound)


def _bounded_dist(grid: GridMap, a: Point, ends) -> list:
    """The starting distances of a search from a that keeps a push into a cell
    n at a distance d only when d + h_b(n) < lim for some end (b, lim) of
    ends, where h_b is the octile distance to b: the max over ends of
    lim - h_b(n) on the cells where that end can keep a push, and 0.0, which
    drops every push, elsewhere.

    An end can keep a push only inside its box of cells with
    |x - ax| + |x - bx| <= lim + 2 and the same in y: outside it, the
    Chebyshev distances to a and to b, and so d + h_b(n), sum above lim + 2.
    Only the boxes are built, one row slice at a time: one end's box as it
    is, several ends' merged in the box that holds them all.
    """
    ax, ay = a.cell()
    pw = grid.width + 2
    dist = [0.0] * (pw * (grid.height + 2))
    boxes = []
    for b, lim in ends:
        bx, by = b.cell()
        x0 = max(math.floor((ax + bx - lim) / 2) - 1, 0)
        x1 = min(math.ceil((ax + bx + lim) / 2) + 1, grid.width - 1)
        y0 = max(math.floor((ay + by - lim) / 2) - 1, 0)
        y1 = min(math.ceil((ay + by + lim) / 2) + 1, grid.height - 1)
        if x0 <= x1 and y0 <= y1:
            boxes.append((x0, x1, y0, y1, bx, by, lim))
    if not boxes:
        return dist

    def bound(x0, x1, y0, y1, bx, by, lim):
        # lim - ((sqrt(2) - 1) * min(dx, dy) + max(dx, dy)), in place
        dx = np.abs(np.arange(x0 - bx, x1 - bx + 1, dtype=np.float64))
        dy = np.abs(np.arange(y0 - by, y1 - by + 1, dtype=np.float64))[:, None]
        rows = np.minimum(dx, dy)
        rows *= SQRT2 - 1.0
        rows += np.maximum(dx, dy)
        return np.subtract(lim, rows, out=rows)

    x0, y0 = boxes[0][0], boxes[0][2]
    if len(boxes) == 1:
        table = bound(*boxes[0])
    else:
        x0, x1 = min(box[0] for box in boxes), max(box[1] for box in boxes)
        y0, y1 = min(box[2] for box in boxes), max(box[3] for box in boxes)
        table = np.zeros((y1 - y0 + 1, x1 - x0 + 1))
        for box in boxes:
            bx0, bx1, by0, by1 = box[:4]
            part = table[by0 - y0 : by1 - y0 + 1, bx0 - x0 : bx1 - x0 + 1]
            np.maximum(part, bound(*box), out=part)
    start = (y0 + 1) * pw + x0 + 1
    for row in table.tolist():
        dist[start : start + len(row)] = row
        start += pw
    return dist


def grid_shortest_path(
    grid: GridMap, a: Point, b: Point, length_hint: float | None = None
) -> tuple[list[tuple[int, int]], float]:
    """Shortest 8-connected cell-center path between the cells of a and b.

    Returns (cell path, length); raises Unreachable when no path exists. See
    shortest_paths_from for the step costs and tie-breaking; the path and
    length are the ones it returns.

    The search is bounded: with h the octile distance to b, a lower bound on
    the rest of any path, a push into cell n at distance d is dropped when
    d + h(n) >= U + 1e-6 * (1 + U), for U = length_hint when given, else
    U = f * h(a) with f from _BOUND_FACTORS in turn, and then unbounded. A
    dropped push can lie on no path shorter than U, and whether a push is
    kept depends on its value and its cell alone, so the kept pushes keep
    their order and the cells of the optimal path get the parents of the
    full search. The first bound that reaches b returns the full search's
    path; an unreachable pair fails every bound and the full search. So a
    hint, such as a stored length, changes no output: one not below the
    path length needs one bounded search, and one below it, NaN or infinite
    ends in the full search.
    """
    if length_hint is None:
        (ax, ay), (bx, by) = a.cell(), b.cell()
        dx, dy = abs(ax - bx), abs(ay - by)
        h_a = (SQRT2 - 1.0) * min(dx, dy) + max(dx, dy)
        bounds = [f * h_a for f in _BOUND_FACTORS]
    else:
        bounds = [length_hint]
    for bound in (*bounds, math.inf):
        lim = _limit(bound)
        dist = _bounded_dist(grid, a, [(b, lim)]) if math.isfinite(lim) else None
        (found,) = shortest_paths_from(grid, a, [b], dist)
        if found is not None:
            return found
        if dist is None:
            raise _no_grid_path(a, b)


def default_dilation_radius(grid: GridMap) -> float:
    """Dilation radius scaled to the map: max dimension / 32 (8 cells at 256)."""
    return max(grid.width, grid.height) / 32.0


def _check_radius(radius: float) -> None:
    if not radius >= 0:  # also rejects nan
        raise InvalidArgument(f"dilation radius must be >= 0, got {radius}")


@lru_cache(maxsize=64)
def _disk_rows(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Row offsets dy of the disk of a finite radius, and each row's half-width:
    the largest dx with sqrt(dx*dx + dy*dy) <= radius."""
    r = int(radius)
    dy = np.arange(-r, r + 1)
    dx = np.arange(r + 1)
    half = (np.sqrt(dx * dx + (dy * dy)[:, None]) <= radius).sum(axis=1) - 1
    dy.setflags(write=False)
    half.setflags(write=False)
    return dy, half


def dilate_path_to_region(grid: GridMap, path, radius: float) -> RegionMask:
    """Mark free cells whose center lies within radius of some path cell center.

    The disk around a cell covers, on row offset dy, the offsets dx up to the
    largest one with sqrt(dx*dx + dy*dy) <= radius: the float test a full-map
    Euclidean distance transform applies. Each path cell marks those row
    intervals, and a cumulative sum over per-row difference counts takes
    their union. A radius beyond the map diagonal marks every free cell.
    """
    if not len(path):
        raise InvalidArgument("path must be nonempty")
    _check_radius(radius)
    h, w = grid.height, grid.width
    xs, ys = np.asarray(path, dtype=np.intp).T
    if xs.min() < 0 or ys.min() < 0 or xs.max() >= w or ys.max() >= h:
        raise InvalidArgument(f"path leaves the {w}x{h} map")
    dy, half = _disk_rows(min(radius, math.hypot(w, h)))
    rows = ys[:, None] + dy
    inside = (rows >= 0) & (rows < h)
    rows = rows[inside] * (w + 1)
    lo = np.maximum(xs[:, None] - half, 0)[inside]
    hi = np.minimum(xs[:, None] + half + 1, w)[inside]
    size = h * (w + 1)
    edges = np.bincount(rows + lo, minlength=size) - np.bincount(rows + hi, minlength=size)
    covered = edges.reshape(h, w + 1).cumsum(axis=1)[:, :w] > 0
    return RegionMask((covered & ~grid.cells).astype(np.float64))


class _PathMask(RegionMask):
    """The region dilate_path_to_region(grid, path, radius), dilated on the
    first read of values: a pair whose region is never read costs no dilation
    and holds no map-sized table."""

    def __init__(self, grid: GridMap, path, radius: float):
        self._dilation = (grid, path, radius)
        self.height, self.width = grid.height, grid.width

    @cached_property
    def values(self) -> np.ndarray:
        values = dilate_path_to_region(*self._dilation).values
        del self._dilation
        return values


class EuclideanEstimator:
    """Straight-line distance; carries no region information (all free cells promising)."""

    def estimate_all(self, grid, goals):
        mask = RegionMask((~grid.cells).astype(np.float64))  # read-only: pairs share it
        m = len(goals)
        return {
            (i, j): PairEstimate(goals[i].distance_to(goals[j]), mask)
            for i in range(m)
            for j in range(i + 1, m)
        }


class GridOracleEstimator:
    """Exact grid shortest-path length with the optimal path dilated into a region."""

    def __init__(self, dilation_radius: float | None = None):
        if dilation_radius is not None:
            _check_radius(dilation_radius)
        self.dilation_radius = dilation_radius

    def _radius(self, grid: GridMap) -> float:
        return self.dilation_radius if self.dilation_radius is not None else default_dilation_radius(grid)

    def estimate_all(self, grid, goals):
        """One search from each goal i to all goals j > i: M-1 searches in all.

        The search from goal 0 is unbounded, so an unreachable goal fails it
        and the first unreachable pair is named. Every later search is bounded
        by paths through earlier goals. The path i -> k -> j for k < i has the
        length D(k, i) + D(k, j), both found by search k, so
        U_ij = min over k < i of D(k, i) + D(k, j) is at least D(i, j), and
        the search from i keeps a push into cell n at distance d only when
        d + h_j(n) < _limit(U_ij) for some target j, with h_j the octile
        distance to j (see _bounded_dist).

        Why every path and length stays the full search's: h_j never exceeds
        the length of the rest of a path to j, so every cell n on the full
        search's path to j has d(n) + h_j(n) <= D(i, j) <= U_ij, below the
        limit, and its settling push is kept. Whether a push is kept depends
        on its value and its cell alone, so the kept pushes keep their order,
        and each path cell is settled at its full-search distance from its
        full-search parent. A cell whose own shortest path was cut is settled
        above its full-search distance, so its pushes lie above every
        full-search distance they could tie with and take no path cell's
        parent. A target the bound missed would come back as None and raise
        Unreachable rather than give another path.

        Each pair's mask dilates its path on the first read of its values.
        Two goals in one cell would be 0 apart, so the first such pair in
        (i, j) order is refused before any search.
        """
        first, shared = {}, []
        for j, goal in enumerate(goals):
            i = first.setdefault(goal.cell(), j)
            if i != j:
                shared.append((i, j))
        if shared:
            i, j = min(shared)
            raise InvalidArgument(f"goal pair ({i}, {j}) shares cell {goals[i].cell()}")
        radius = self._radius(grid)
        out = {}
        m = len(goals)
        lengths = np.zeros((m, m))
        for i in range(m - 1):
            targets = [goals[j] for j in range(i + 1, m)]
            dist = None
            if i:
                lim = _limit((lengths[:i, i, None] + lengths[:i, i + 1 :]).min(axis=0))
                dist = _bounded_dist(grid, goals[i], list(zip(targets, lim.tolist())))
            found = shortest_paths_from(grid, goals[i], targets, dist)
            for j, hit in enumerate(found, start=i + 1):
                if hit is None:
                    exc = _no_grid_path(goals[i], goals[j])
                    raise Unreachable(f"goal pair ({i}, {j}) is unreachable: {exc}")
                path, length = hit
                lengths[i, j] = length
                out[(i, j)] = PairEstimate(length, _PathMask(grid, path, radius))
        return out


class ExternalEstimator:
    """Estimates read back from a prediction directory (see load_external_predictions)."""

    def __init__(self, distances: dict, masks: dict, source: str = ""):
        self.distances = distances
        self.masks = masks
        self.source = source

    def estimate_all(self, grid, goals):
        out = {}
        m = len(goals)
        for i in range(m):
            for j in range(i + 1, m):
                if (i, j) not in self.distances or (i, j) not in self.masks:
                    dist_path = os.path.join(self.source, "distances.csv")
                    raise FormatError(f"{dist_path}: no stored prediction for pair {(i, j)}")
                mask = self.masks[(i, j)]
                with naming(os.path.join(self.source, pair_mask_filename(i, j))):
                    mask.check_shape(grid)
                out[(i, j)] = PairEstimate(self.distances[(i, j)], mask)
        return out


def build_weight_matrix(grid: GridMap, goals: GoalSet, est) -> tuple[WeightMatrix, dict]:
    """Estimate all M*(M-1)/2 unordered goal pairs and assemble the symmetric matrix.

    est is any object with ``estimate_all(grid, goals)``, which returns
    {(i, j): PairEstimate} for every goal pair i < j in (i, j) order, and
    raises Unreachable naming the first unreachable pair (i, j).
    Returns (matrix, masks) where masks maps each (i, j) with i < j to that
    pair's region. An unreachable pair aborts construction: a partial graph
    cannot guarantee the visiting order.
    """
    goals.validate_on(grid)
    m = len(goals)
    w = np.zeros((m, m), dtype=np.float64)
    masks: dict[tuple[int, int], RegionMask] = {}
    for (i, j), pe in est.estimate_all(grid, goals).items():
        w[i, j] = w[j, i] = pe.distance
        masks[(i, j)] = pe.mask
    return WeightMatrix(w), masks


def pair_mask_filename(i: int, j: int) -> str:
    return f"pair_{min(i, j)}_{max(i, j)}.pgm"


def export_predictions(directory, grid: GridMap, goals: GoalSet, est):
    """Write per-pair masks and distances in the external-prediction layout.

    Produces pair_i_j.pgm (mask scaled to 0..255) and distances.csv with rows
    "i,j,distance"; a failed estimate creates no directory. Each mask is
    dropped once written, so an oracle estimate holds one map-sized table at
    a time. Returns the exported matrix.
    """
    matrix, masks = build_weight_matrix(grid, goals, est)
    os.makedirs(directory, exist_ok=True)
    pairs = sorted(masks)
    for i, j in pairs:
        write_pgm(os.path.join(directory, pair_mask_filename(i, j)), masks.pop((i, j)).to_u8())
    write_rows(os.path.join(directory, "distances.csv"), [(i, j, matrix[i, j]) for i, j in pairs])
    return matrix


def load_external_predictions(directory) -> ExternalEstimator:
    """Load an ExternalEstimator from a prediction directory.

    The directory must hold distances.csv with rows "i,j,distance" and one
    pair_i_j.pgm mask per listed pair.
    """
    root = os.fspath(directory)
    dist_path = os.path.join(root, "distances.csv")
    if not os.path.exists(dist_path):
        raise FormatError(f"{root}: no distances.csv")
    distances: dict[tuple[int, int], float] = {}
    masks: dict[tuple[int, int], RegionMask] = {}
    for row, (pair, d) in read_table(dist_path, _prediction_row, key=lambda entry: entry[0]):
        distances[pair] = d
        mask_path = os.path.join(root, pair_mask_filename(*pair))
        if not os.path.exists(mask_path):
            raise FormatError(
                f"{dist_path} row {row}: missing mask file for pair {pair}: {mask_path}"
            )
        masks[pair] = RegionMask.from_u8(read_pgm(mask_path))
    return ExternalEstimator(distances, masks, source=root)


def _prediction_row(fields) -> tuple[tuple[int, int], float]:
    """((i, j) with i < j, distance > 0) of an "i,j,distance" row."""
    i, j, d = fields
    i, j, d = int(i), int(j), float(d)
    if i == j or min(i, j) < 0 or not (math.isfinite(d) and d > 0):
        raise InvalidArgument(f"pair ({i}, {j}) at distance {d}")
    return (min(i, j), max(i, j)), d


def make_estimator(kind: str, dilation_radius: float | None = None):
    """Build an estimator from a CLI-style spec: euclidean | oracle | external:<dir>."""
    if kind == "euclidean":
        return EuclideanEstimator()
    if kind == "oracle":
        return GridOracleEstimator(dilation_radius)
    if kind.startswith("external:"):
        directory = kind.split(":", 1)[1]
        if not directory:
            raise InvalidArgument(
                f"estimator {kind!r} names no directory (expected external:<dir>)"
            )
        return load_external_predictions(directory)
    raise InvalidArgument(
        f"unknown estimator {kind!r} (expected euclidean, oracle, or external:<dir>)"
    )
