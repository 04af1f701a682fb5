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
from functools import lru_cache

import numpy as np

from .errors import FormatError, InvalidArgument, Unreachable
from .grid import (
    GoalSet,
    GridMap,
    Point,
    cells_where,
    check_endpoints,
    is_2d,
    read_rows,
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
        arr = np.array(w, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
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
        rows = []
        for row, line in read_rows(path):
            try:
                values = [float(v) for v in line.split(",")]
            except ValueError:
                raise FormatError(f"{path} row {row}: non-numeric entry") from None
            if rows and len(values) != len(rows[0]):
                raise FormatError(
                    f"{path} row {row}: expected {len(rows[0])} columns, got {len(values)}"
                )
            rows.append(values)
        if not rows:
            raise FormatError(f"{path}: empty weight matrix")
        try:
            return cls(np.array(rows, dtype=np.float64))
        except InvalidArgument as exc:
            raise FormatError(f"{path}: {exc}") from None


@lru_cache(maxsize=16)
def _move_table(pw: int) -> tuple:
    """For each 8-bit move code, the id offsets of its set orthogonal moves and
    of its set diagonal moves, each in NEIGHBORS_8 order, for ids on a map
    padded to width pw."""
    moves = [(dy * pw + dx, cost) for dx, dy, cost in NEIGHBORS_8]

    def offsets(code: int, step: float) -> tuple:
        return tuple(off for k, (off, cost) in enumerate(moves) if code >> k & 1 and cost == step)

    return tuple((offsets(code, 1.0), offsets(code, SQRT2)) for code in range(256))


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


def shortest_paths_from(grid: GridMap, a: Point, targets) -> list:
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

    Returns one (cell path, length) per target, in target order, or None for
    a target that cannot be reached. Cells are ids on the map padded by a
    one-cell blocked border; each cell's legal moves come from its move code
    (see _move_codes), so the inner loop tests neither bounds nor obstacles.
    """
    for b in targets:
        check_endpoints(grid, a, b)
    return _search(grid, a, targets)


def _search(grid: GridMap, a: Point, targets, dist: list | None = None) -> list:
    """The search of shortest_paths_from, endpoints unchecked.

    dist holds each padded cell id's starting distance (all inf when None):
    a push into a cell is kept only below it, so a finite entry drops every
    push at or above it (see grid_shortest_path). dist is consumed.
    """
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
            ortho_moves, diag_moves = table[code[c]]
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


def _octile_to(grid: GridMap, b: Point) -> np.ndarray:
    """Octile distance from every cell of the padded map to the cell of b,
    indexed [y + 1, x + 1]: a lower bound on the 8-connected path length."""
    bx, by = b.cell()
    dx = np.abs(np.arange(-1, grid.width + 1) - bx)
    dy = np.abs(np.arange(-1, grid.height + 1) - by)[:, None]
    return (SQRT2 - 1.0) * np.minimum(dx, dy) + np.maximum(dx, dy)


def grid_shortest_path(grid: GridMap, a: Point, b: Point) -> tuple[list[tuple[int, int]], float]:
    """Shortest 8-connected cell-center path between the cells of a and b.

    Returns (cell path, length); raises Unreachable when no path exists. See
    shortest_paths_from for the step costs and tie-breaking; the path and
    length are the ones it returns.

    The search is bounded: with h the octile distance to b, a lower bound on
    the rest of any path, a push into cell n at distance d is dropped when
    d + h(n) >= U + 1e-6 * (1 + U), for U = f * h(a) with f from
    _BOUND_FACTORS in turn, and then unbounded. A dropped push can lie on no
    path shorter than U, and whether a push is kept depends on its value
    alone, so the kept pushes keep their order and the cells of the optimal
    path get the parents of the full search. The first bound that reaches b
    returns the full search's path; an unreachable pair fails every bound
    and the full search.
    """
    check_endpoints(grid, a, b)
    h = _octile_to(grid, b)
    ax, ay = a.cell()
    h_a = float(h[ay + 1, ax + 1])
    h = h.ravel()
    for f in _BOUND_FACTORS:
        bound = f * h_a
        (found,) = _search(grid, a, [b], (bound + 1e-6 * (1.0 + bound) - h).tolist())
        if found is not None:
            return found
    (found,) = _search(grid, a, [b])
    if found is None:
        raise _no_grid_path(a, b)
    return found


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


def _pair_unreachable(i: int, j: int, exc: Unreachable) -> Unreachable:
    return Unreachable(f"goal pair ({i}, {j}) is unreachable: {exc}")


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
        """One search from each goal i to all goals j > i: M-1 searches in all."""
        radius = self._radius(grid)
        out = {}
        m = len(goals)
        for i in range(m - 1):
            found = shortest_paths_from(grid, goals[i], [goals[j] for j in range(i + 1, m)])
            for j, hit in enumerate(found, start=i + 1):
                if hit is None:
                    exc = _no_grid_path(goals[i], goals[j])
                    raise _pair_unreachable(i, j, exc) from exc
                path, length = hit
                out[(i, j)] = PairEstimate(length, dilate_path_to_region(grid, path, radius))
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
                try:
                    mask.check_shape(grid)
                except InvalidArgument as exc:
                    mask_path = os.path.join(self.source, pair_mask_filename(i, j))
                    raise InvalidArgument(f"{mask_path}: {exc}") from None
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
    "i,j,distance"; a failed estimate creates no directory. Returns the
    (matrix, masks) pair that was exported.
    """
    matrix, masks = build_weight_matrix(grid, goals, est)
    os.makedirs(directory, exist_ok=True)
    for (i, j), mask in sorted(masks.items()):
        write_pgm(os.path.join(directory, pair_mask_filename(i, j)), mask.to_u8())
    write_rows(
        os.path.join(directory, "distances.csv"), [(i, j, matrix[i, j]) for i, j in sorted(masks)]
    )
    return matrix, masks


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
    for row, line in read_rows(dist_path):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{dist_path} row {row}: expected 'i,j,distance'")
        try:
            i, j, d = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise FormatError(f"{dist_path} row {row}: bad entry {line!r}") from None
        pair = (min(i, j), max(i, j))
        if pair in distances:
            raise FormatError(f"{dist_path} row {row}: pair {pair} listed twice")
        if i == j or pair[0] < 0 or not (math.isfinite(d) and d >= 0):
            raise FormatError(f"{dist_path} row {row}: bad entry {line!r}")
        distances[pair] = d
        mask_path = os.path.join(root, pair_mask_filename(i, j))
        if not os.path.exists(mask_path):
            raise FormatError(
                f"{dist_path} row {row}: missing mask file for pair {pair}: {mask_path}"
            )
        masks[pair] = RegionMask.from_u8(read_pgm(mask_path))
    return ExternalEstimator(distances, masks, source=root)


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
