"""Occupancy-grid world model: maps, goals, collision queries, generation, file I/O.

Coordinates are continuous cell units: a point (x, y) lies in the cell
(floor(x), floor(y)), x in [0, width), y in [0, height). The cell table is
indexed cells[y][x] with True marking an obstacle.

Map file formats:
  * text: first line "width height", then height rows of width characters,
    '.' free and '#' obstacle, row 0 = y 0;
  * binary PGM (P5): 0 = obstacle, 255 = free (any nonzero reads as free).
Goals files are CSV with one "x,y" pair per line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GenerationFailed, InvalidArgument, PlacementFailed, naming
from .pgm import read_pgm, write_pgm

_RETRY_BUDGET = 100
# Largest map, in cells. It bounds what a map allocates (a map's per-cell
# tables, the oracle's lists) and keeps every oracle distance far below 2**51,
# which the oracle search's tie rule needs.
MAX_CELLS = 2**24


@dataclass(frozen=True)
class Point:
    """A position in continuous cell units."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidArgument(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def cell(self) -> tuple[int, int]:
        """(column, row) of the containing cell."""
        return (int(math.floor(self.x)), int(math.floor(self.y)))

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class GridMap:
    """Immutable 2D occupancy grid; True cells are obstacles."""

    def __init__(self, cells: np.ndarray):
        if not is_2d(cells):
            raise InvalidArgument("cells must be a 2D table")
        check_real(cells, "cells")
        height, width = np.shape(cells)
        check_map_size(width, height)
        arr = np.array(cells, dtype=bool)
        if arr.all():
            raise InvalidArgument("map has no free cell")
        arr.setflags(write=False)
        self.cells = arr
        self.width = width
        self.height = height

    def __eq__(self, other):
        return (
            isinstance(other, GridMap)
            and self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __repr__(self):
        return f"GridMap({self.width}x{self.height}, density={self.density():.3f})"

    def density(self) -> float:
        """Fraction of blocked cells."""
        return float(self.cells.sum()) / (self.width * self.height)

    def is_free(self, p: Point) -> bool:
        """True iff the cell containing p is not an obstacle."""
        if not (0.0 <= p.x < self.width and 0.0 <= p.y < self.height):
            raise InvalidArgument(f"point ({p.x}, {p.y}) outside {self.width}x{self.height} map")
        cx, cy = p.cell()
        return not self.cells[cy, cx]

    def segment_clear(self, a: Point, b: Point) -> bool:
        """Collision test: True iff no cell floor(p(t)) along the segment is
        blocked, for any t, up to rounding (below).

        Unlike a check of points sampled along the segment this does not miss
        corner clips, so a clear segment stays clear under sampled re-checks.
        The planners and verify_solution both use it. Every such cell lies in
        the box of the endpoints' cells, so a segment whose box holds no
        blocked cell is clear without a walk, and the walk reads no cell
        outside the box.

        The walk steps between crossings in floating point, so where the
        segment passes within a few ulps of a cell corner or edge its answer
        can differ from exact arithmetic: on 30,000 segments with end
        coordinates on or one ulp from an integer (64x64 maps, 8% blocked),
        25 were clear while entering a blocked cell by under 2e-14 cells and
        9 blocked while clear; none of 30,000 uniform segments differed.
        """
        ax, ay, bx, by = a.x, a.y, b.x, b.y
        width, height = self.width, self.height
        if not (0.0 <= ax < width and 0.0 <= ay < height):
            raise InvalidArgument(f"segment endpoint ({ax}, {ay}) out of bounds")
        if not (0.0 <= bx < width and 0.0 <= by < height):
            raise InvalidArgument(f"segment endpoint ({bx}, {by}) out of bounds")
        # nested lists and int32 row arrays: reading one Python bool or int is
        # cheaper than a numpy scalar
        if not hasattr(self, "_rows"):
            self._rows = self.cells.tolist()
            # summed-area table (Crow 1984): [y][x] counts the blocked cells in
            # rows < y and columns < x, so a cell box's count is four reads
            counts = np.zeros((height + 1, width + 1), dtype=np.int32)
            counts[1:, 1:] = self.cells.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32)
            self._blocked = [array("i", row.tolist()) for row in counts]
        rows = self._rows
        # int() is floor() for the in-bounds, non-negative coordinates
        x, y = int(ax), int(ay)
        ex, ey = int(bx), int(by)
        if rows[y][x] or rows[ey][ex]:
            return False
        # every cell floor(p(t)) lies in the endpoints' cell box: a box with no
        # blocked cell needs no walk
        x0, x1 = (x, ex) if x <= ex else (ex, x)
        y0, y1 = (y, ey) if y <= ey else (ey, y)
        low, high = self._blocked[y0], self._blocked[y1 + 1]
        if high[x1 + 1] - high[x0] - low[x1 + 1] + low[x0] == 0:
            return True
        dx = bx - ax
        dy = by - ay
        step_x = 1 if dx > 0 else -1 if dx < 0 else 0
        step_y = 1 if dy > 0 else -1 if dy < 0 else 0
        t_max_x = math.inf if step_x == 0 else ((x + (step_x > 0)) - ax) / dx
        t_max_y = math.inf if step_y == 0 else ((y + (step_y > 0)) - ay) / dy
        t_delta_x = math.inf if step_x == 0 else abs(1.0 / dx)
        t_delta_y = math.inf if step_y == 0 else abs(1.0 / dy)
        while x != ex or y != ey:
            if t_max_x >= 1.0 and t_max_y >= 1.0:
                # remaining crossings lie at or beyond the endpoint, whose
                # cell was already validated
                return True
            tx, ty = t_max_x, t_max_y
            if tx <= ty:
                x += step_x
                t_max_x += t_delta_x
            if ty <= tx:
                y += step_y
                t_max_y += t_delta_y
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                # rounding put a crossing at or past the endpoint before it:
                # any cell left unread is touched only within rounding of the
                # endpoint, whose cell was already validated
                return True
            # an exact corner crossing also reads the cell of the corner point
            if rows[y][x] or tx == ty and rows[y + (step_y < 0)][x + (step_x < 0)]:
                return False
        return True

    def free_cells(self) -> np.ndarray:
        """(N, 2) int array of free-cell (x, y) indices in row-major order."""
        if not hasattr(self, "_free_cells"):
            self._free_cells = cells_where(~self.cells)
        return self._free_cells

    def component_labels(self) -> np.ndarray:
        """Oracle-reachable component label per cell; 0 on obstacles.

        Components are numbered 1, 2, ... in raster order of their first cell.
        """
        if not hasattr(self, "_labels"):
            labels = _label_components(self.cells)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    def largest_component_cells(self) -> np.ndarray:
        """(N, 2) free-cell (x, y) indices of the largest free component."""
        if not hasattr(self, "_largest_cells"):
            labels = self.component_labels()
            counts = np.bincount(labels.ravel())
            counts[0] = 0
            self._largest_cells = cells_where(labels == counts.argmax())
        return self._largest_cells


def is_2d(table) -> bool:
    """True iff table is a rectangular 2D table; ragged rows are not."""
    try:
        return np.ndim(table) == 2
    except ValueError:  # numpy refuses ragged rows
        return False


def check_real(table, what: str) -> None:
    """Raise InvalidArgument unless table holds bools, integers or floats:
    strings, objects (None among them) and complex numbers are refused."""
    dtype = np.asarray(table).dtype
    if dtype.kind not in "biuf":
        raise InvalidArgument(f"{what} must be real numbers, got {dtype} entries")


def cells_where(table: np.ndarray) -> np.ndarray:
    """(N, 2) read-only int array of the (x, y) indices of the True cells of a
    2D bool table, in row-major order."""
    rows, cols = np.nonzero(table)
    cells = np.column_stack([cols, rows]).astype(np.intp)
    cells.setflags(write=False)
    return cells


def check_endpoints(grid: GridMap, start: Point, goal: Point) -> None:
    """Raise InvalidArgument unless both ends of a path lie in free cells of grid."""
    if not grid.is_free(start):
        raise InvalidArgument(f"start ({start.x}, {start.y}) is not free")
    if not grid.is_free(goal):
        raise InvalidArgument(f"goal ({goal.x}, {goal.y}) is not free")


class GoalSet:
    """An ordered set of at least two pairwise-distinct goal points."""

    def __init__(self, goals):
        pts = tuple(goals)
        if len(pts) < 2:
            raise InvalidArgument(f"need at least 2 goals, got {len(pts)}")
        seen = set()
        for p in pts:
            key = (p.x, p.y)
            if key in seen:
                raise InvalidArgument(f"duplicate goal at ({p.x}, {p.y})")
            seen.add(key)
        self.goals = pts

    def __len__(self):
        return len(self.goals)

    def __iter__(self):
        return iter(self.goals)

    def __getitem__(self, i) -> Point:
        return self.goals[i]

    def __eq__(self, other):
        return isinstance(other, GoalSet) and self.goals == other.goals

    def __repr__(self):
        return f"GoalSet({len(self.goals)} goals)"

    def validate_on(self, grid: GridMap) -> None:
        """Raise if any goal lies in a blocked cell."""
        for i, p in enumerate(self.goals):
            if not grid.is_free(p):
                raise InvalidArgument(f"goal {i} at ({p.x}, {p.y}) is inside an obstacle")


@dataclass(frozen=True)
class ObstacleSpec:
    """Parameters for random rectangular-obstacle placement.

    The generator places between count_range[0] and count_range[1] axis-aligned
    rectangles, stopping early once blocked density reaches a target drawn from
    density_range. A map is accepted when its final density lies inside
    density_range and the largest free component holds at least half the free
    cells.
    """

    count_range: tuple[int, int] = (0, 64)
    size_range: tuple[int, int] = (2, 10)
    density_range: tuple[float, float] = (0.0, 0.35)

    def __post_init__(self):
        if self.count_range[0] < 0 or self.count_range[0] > self.count_range[1]:
            raise InvalidArgument(f"bad count_range {self.count_range}")
        if self.size_range[0] < 1 or self.size_range[0] > self.size_range[1]:
            raise InvalidArgument(f"bad size_range {self.size_range}")
        lo, hi = self.density_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise InvalidArgument(f"bad density_range {self.density_range}")


def _label_components(cells: np.ndarray) -> np.ndarray:
    """int32 label per cell of the 4-connected free components, 0 on obstacles,
    numbered in raster order of each component's first cell.

    Component labeling uses 4-connectivity: the grid oracle forbids corner
    cutting, and a diagonal move with both orthogonal neighbors free is always
    replaceable by two orthogonal moves, so oracle reachability IS 4-connected
    reachability. Plain 8-connected labeling would join cells across corner
    pinches the oracle cannot traverse.

    Run-based two-pass labeling (He, Chao & Suzuki, IEEE TIP 2008): each row's
    free runs are found at once, runs that share a column with a run of the
    next row are joined, and each component takes the rank of its first run.
    """
    height, width = cells.shape
    # Runs as [start, end) offsets into the flattened rows, each padded with
    # one blocked cell at both ends so that no run spans two rows (every offset
    # is one less than its padded index, which no comparison below sees).
    stride = width + 2
    padded = np.zeros((height, stride), dtype=np.int8)
    padded[:, 1:-1] = ~cells
    step = np.diff(padded.ravel())
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    # Run i touches the runs j of the next row with start_j < end_i + stride
    # and end_j > start_i + stride: a contiguous range, since runs are sorted.
    first = np.searchsorted(ends, starts + stride, side="right")
    counts = np.maximum(np.searchsorted(starts, ends + stride, side="left") - first, 0)
    upper = np.repeat(np.arange(len(starts)), counts)
    lower = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(upper))
    # Union-find over the touching pairs, the smaller run id as the root, so
    # a run's parent never follows it and one ascending pass resolves every root.
    parent = list(range(len(starts)))
    for i, j in zip(upper.tolist(), lower.tolist()):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    root = np.array(parent, dtype=np.intp)
    run_label = np.cumsum(root == np.arange(len(root)), dtype=np.int32)[root]
    labels = np.zeros(cells.shape, dtype=np.int32)
    labels[~cells] = np.repeat(run_label, ends - starts)
    return labels


def check_map_size(width: int, height: int) -> None:
    """Reject a map shape below 2x2 or above MAX_CELLS cells, before anything
    of that size is allocated."""
    if width < 2 or height < 2:
        raise InvalidArgument(f"map must be at least 2x2, got {width}x{height}")
    if width * height > MAX_CELLS:
        raise InvalidArgument(f"map must have at most {MAX_CELLS} cells, got {width}x{height}")


def generate_map(seed: int, width: int, height: int, spec: ObstacleSpec | None = None) -> GridMap:
    """Generate a random obstacle map, deterministic for a fixed seed.

    Retries internally (bounded) until density and connectivity constraints
    hold; raises GenerationFailed when the budget is exhausted.
    """
    check_map_size(width, height)
    spec = spec or ObstacleSpec()
    rng = np.random.default_rng(check_seed(seed))
    total = width * height
    cmin, cmax = spec.count_range
    dmin, dmax = spec.density_range

    for _ in range(_RETRY_BUDGET):
        cells = np.zeros((height, width), dtype=bool)
        target = rng.uniform(dmin, dmax)
        placed = 0
        while placed < cmax:
            if placed >= cmin and np.count_nonzero(cells) / total >= target:
                break
            w = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
            h = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
            w = min(w, width)
            h = min(h, height)
            x0 = int(rng.integers(0, width - w + 1))
            y0 = int(rng.integers(0, height - h + 1))
            cells[y0 : y0 + h, x0 : x0 + w] = True
            placed += 1

        blocked = np.count_nonzero(cells)
        if not (dmin <= blocked / total <= dmax) or blocked == total:
            continue
        grid = GridMap(cells)
        # the largest component's size (blocked < total, so label 1 exists)
        if np.bincount(grid.component_labels().ravel())[1:].max() >= 0.5 * (total - blocked):
            return grid

    raise GenerationFailed(
        f"no admissible {width}x{height} map with density in [{dmin}, {dmax}] "
        f"after {_RETRY_BUDGET} attempts"
    )


def place_goals(grid: GridMap, m: int, seed: int, min_separation: float = 0.0) -> GoalSet:
    """Place m goals at cell centers of the largest free component.

    Goals occupy pairwise-distinct cells and keep pairwise Euclidean distance
    >= min_separation. Deterministic per seed; raises PlacementFailed when the
    rejection-sampling budget runs out, or before any draw when the goals
    provably cannot fit: m disjoint disks of radius s/2 lie inside the map
    grown by s/2 on every side, so m*pi*s^2/4 <= (W+s)*(H+s).
    """
    if m < 2:
        raise InvalidArgument(f"need m >= 2 goals, got {m}")
    if not 0 <= min_separation < math.inf:  # also rejects nan
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
        chosen: set[tuple[int, int]] = set()
        placed: list[tuple[float, float]] = []
        for _ in range(_RETRY_BUDGET * m):
            i = int(rng.integers(len(cells)))
            cx, cy = cells.item(i, 0), cells.item(i, 1)
            if (cx, cy) in chosen:
                continue
            px, py = cx + 0.5, cy + 0.5
            # the same arithmetic as Point.distance_to, on plain floats
            if all(math.hypot(px - qx, py - qy) >= min_separation for qx, qy in placed):
                chosen.add((cx, cy))
                placed.append((px, py))
                if len(placed) == m:
                    return GoalSet([Point(x, y) for x, y in placed])
    raise PlacementFailed(
        f"could not place {m} goals with separation {min_separation} "
        f"after {_RETRY_BUDGET} restarts"
    )


def save_map(path, grid: GridMap) -> None:
    """Write a map as text, or as PGM when the path ends in .pgm."""
    if _is_pgm(path):
        write_pgm(path, np.where(grid.cells, 0, 255).astype(np.uint8))
        return
    text = np.full((grid.height, grid.width + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = np.where(grid.cells, ord("#"), ord("."))
    with open(path, "wb") as f:
        f.write(f"{grid.width} {grid.height}\n".encode("ascii") + text.tobytes())


def load_map(path) -> GridMap:
    """Read a map written by save_map (text or PGM)."""
    cells = read_pgm(path) == 0 if _is_pgm(path) else _text_map_cells(path)
    with naming(path, FormatError):
        return GridMap(cells)


def _text_map_cells(path) -> np.ndarray:
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty map file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"{path} line 1: expected 'width height', got {lines[0]!r}")
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"{path} line 1: non-integer dimensions {lines[0]!r}") from None
    if width < 0 or height < 0:
        raise FormatError(f"{path} line 1: negative dimensions {lines[0]!r}")
    rows = lines[1 : 1 + height]
    if len(rows) < height:
        raise FormatError(f"{path}: expected {height} rows, file has {len(lines) - 1}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise FormatError(f"{path} line {lineno}: expected {width} characters, got {len(row)}")
        if row.count("#") + row.count(".") != width:
            bad = next(ch for ch in row if ch not in "#.")
            raise FormatError(f"{path} line {lineno}: invalid character {bad!r}")
    for lineno, line in enumerate(lines[1 + height :], start=2 + height):
        if line.strip():
            raise FormatError(f"{path} line {lineno}: text after the last of {height} rows")
    block = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return block.reshape(height, width) == ord("#")


def save_goals(path, goals: GoalSet) -> None:
    """Write goals as CSV, one "x,y" pair per line."""
    write_rows(path, ((p.x, p.y) for p in goals))


def load_goals(path) -> GoalSet:
    """Read a goals CSV; its k-th non-blank row is goal k - 1."""
    points = [p for _, p in read_table(path, point_row, key=lambda p: (p.x, p.y))]
    if len(points) < 2:
        raise FormatError(f"{path}: goals file needs at least 2 rows, got {len(points)}")
    return GoalSet(points)


def point_row(fields) -> Point:
    """The Point of an "x,y" row: a goal, a path point, or plan's --start and --goal."""
    x, y = fields
    return Point(float(x), float(y))


def read_lines(path) -> list[str]:
    r"""The lines of an ASCII text file; "\n", "\r\n" and "\r" each end a line.

    Every map, CSV, config and JSON file of the package is read here. A non-ASCII
    byte raises FormatError naming the file and the byte's offset.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.isascii():
        offset = next(i for i, byte in enumerate(data) if byte > 0x7F)
        raise FormatError(f"{path} byte {offset}: non-ASCII byte 0x{data[offset]:02x}")
    return [line.decode("ascii") for line in data.splitlines()]


def read_rows(path):
    """Yield (line number, stripped text) of each non-blank line of an ASCII text file."""
    for row, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line:
            yield row, line


def parse_row(text: str, parse, where: str):
    """parse(the fields of text split on commas). A ValueError from parse,
    InvalidArgument among them, raises FormatError "<where>: bad entry '<text>'"."""
    try:
        return parse(text.split(","))
    except ValueError:
        raise FormatError(f"{where}: bad entry {text!r}") from None


def read_table(path, parse, key=None):
    """Yield (line number, parse(fields)) of each non-blank row of an ASCII CSV file,
    refusing a bad row as parse_row does; with key, a row whose key(value) an
    earlier row had raises FormatError naming both rows. Every CSV input is read here."""
    first_row = {}
    for row, line in read_rows(path):
        value = parse_row(line, parse, f"{path} row {row}")
        if key is not None:
            k = key(value)
            if k in first_row:
                raise FormatError(f"{path} row {row} repeats row {first_row[k]}: {k!r}")
            first_row[k] = row
        yield row, value


def write_lines(path, lines) -> None:
    r"""Write an ASCII text file with "\n" after every line; every text file of
    the package is written here."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def write_rows(path, rows) -> None:
    """Write rows of fields as an ASCII CSV file: each field as str() gives it (a
    float's shortest round-trip form), None as an empty field, quoted if it holds
    a comma."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_lines(path, text.getvalue().split("\n")[:-1])


def read_json_object(path, key: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in an ASCII text file, whose key must hold a list of
    entries; each entry must be an object whose fields are strings.

    Bad JSON, a key repeated in one object, a missing key or a mistyped entry
    raises FormatError naming the file.
    """
    text = "\n".join(read_lines(path))
    try:
        with naming(path, FormatError):
            doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting beyond the parser's depth
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise FormatError(f"{path}: expected an object with a {key!r} list")
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and all(isinstance(entry.get(f), str) for f in fields)):
            raise FormatError(f"{path}: {key}[{n}] needs string fields {', '.join(fields)}")
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice, of which json.loads would keep the last, is refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"key {key!r} repeated in one object")
        doc[key] = value
    return doc


def _is_pgm(path) -> bool:
    return os.fspath(path).lower().endswith(".pgm")


def check_integer(value, what: str) -> None:
    """Raise InvalidArgument unless value is an int or a numpy integer; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")


def check_seed(seed: int) -> int:
    """seed as an int, or InvalidArgument unless it is an integer (int or
    numpy integer, not bool) in [0, 2**64)."""
    check_integer(seed, "seed")
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise InvalidArgument(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed
