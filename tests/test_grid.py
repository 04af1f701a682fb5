import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from multigoal import (
    GoalSet,
    GridMap,
    ObstacleSpec,
    PlacementFailed,
    Point,
    generate_map,
    place_goals,
    save_goals,
    save_map,
)
from multigoal.errors import FormatError, InvalidArgument
from multigoal.estimators import GridOracleEstimator, export_predictions, load_external_predictions
from multigoal.grid import MAX_CELLS, check_map_size, load_goals, load_map
import sampled_reference
from sampled_reference import segment_free


def empty_map(w=4, h=4):
    return GridMap(np.zeros((h, w), dtype=bool))


def map_with_blocked(blocked, w=8, h=8):
    cells = np.zeros((h, w), dtype=bool)
    for x, y in blocked:
        cells[y, x] = True
    return GridMap(cells)


class TestGridMap:
    def test_rejects_tiny_maps(self):
        with pytest.raises(ValueError):
            GridMap(np.zeros((1, 5), dtype=bool))

    def test_rejects_all_blocked(self):
        with pytest.raises(ValueError):
            GridMap(np.ones((4, 4), dtype=bool))

    def test_rejects_maps_above_the_cap(self):
        # a zero-stride view: the shape is checked before the cells are copied
        cells = np.broadcast_to(np.zeros(1, dtype=bool), (4096, 4097))
        with pytest.raises(InvalidArgument, match="at most 16777216 cells, got 4097x4096"):
            GridMap(cells)
        with pytest.raises(InvalidArgument, match="at most 16777216 cells, got 3000000x3000000"):
            generate_map(0, 3_000_000, 3_000_000)
        assert MAX_CELLS == 4096 * 4096
        check_map_size(4096, 4096)
        with pytest.raises(InvalidArgument, match="at least 2x2, got -5x10"):
            check_map_size(-5, 10)

    def test_cells_are_immutable(self):
        g = empty_map()
        with pytest.raises(ValueError):
            g.cells[0, 0] = True


class TestIsFree:
    def test_all_free_map(self):
        assert empty_map().is_free(Point(1.5, 1.5))

    def test_point_inside_obstacle(self):
        g = map_with_blocked([(2, 2)], w=4, h=4)
        assert not g.is_free(Point(2.5, 2.9))

    def test_out_of_bounds(self):
        g = map_with_blocked([(2, 2)], w=4, h=4)
        with pytest.raises(InvalidArgument, match=re.escape("point (-1, 0) outside 4x4 map")):
            g.is_free(Point(-1, 0))
        with pytest.raises(InvalidArgument, match=re.escape("point (0, 4.0) outside 4x4 map")):
            g.is_free(Point(0, 4.0))

    def test_matches_cell_table(self):
        g = map_with_blocked([(1, 0), (3, 5)], w=6, h=6)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0, 6 - 1e-9)
            y = rng.uniform(0, 6 - 1e-9)
            assert g.is_free(Point(x, y)) == (not g.cells[int(y), int(x)])


class TestSegmentFree:
    def test_all_free(self):
        g = empty_map(8, 8)
        assert segment_free(g, Point(0.5, 0.5), Point(7.5, 7.5), 0.25)

    def test_wall_blocks(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[:, 4] = True
        g = GridMap(cells)
        assert not segment_free(g, Point(1, 4), Point(7, 4), 0.25)

    def test_gap_in_wall_passes(self):
        # Independent oracle: exhaustive interpolation at resolution 0.01.
        cells = np.zeros((8, 8), dtype=bool)
        cells[:, 4] = True
        cells[3, 4] = False
        g = GridMap(cells)
        a, b = Point(1, 3.5), Point(7, 3.5)

        dist = a.distance_to(b)
        n = int(math.ceil(dist / 0.01)) + 1
        expect = all(
            g.is_free(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
            for t in (i / (n - 1) for i in range(n))
        )
        assert expect is True
        assert segment_free(g, a, b, 0.25) is True

    def test_symmetry(self):
        g = map_with_blocked([(3, 3), (4, 2), (1, 5)], w=8, h=8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = Point(rng.uniform(0, 8), rng.uniform(0, 8))
            b = Point(rng.uniform(0, 8), rng.uniform(0, 8))
            assert segment_free(g, a, b, 0.3) == segment_free(g, b, a, 0.3)

    def test_zero_length_segment(self):
        g = empty_map()
        p = Point(1.5, 1.5)
        assert segment_free(g, p, p, 0.25)

    def test_out_of_bounds_endpoint(self):
        g = empty_map()
        with pytest.raises(InvalidArgument, match=re.escape("endpoint (4.5, 1.0) out of bounds")):
            segment_free(g, Point(0.5, 0.5), Point(4.5, 1.0), 0.25)


def coordinate(draw, size):
    """A coordinate in [0, size): an integer, a half-integer, a float next to
    an integer, or any float."""
    k = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(["integer", "half", "above", "below", "any"]))
    if kind == "integer":
        return float(k)
    if kind == "half":
        return k + 0.5
    if kind == "above":
        return math.nextafter(float(k), math.inf)
    if kind == "below":
        return math.nextafter(float(k + 1), -math.inf)
    return draw(st.floats(0.0, size, exclude_max=True))


@st.composite
def segments_on_maps(draw):
    """A random map and segments on it: equal endpoints, segments inside one
    cell, across two adjacent cells, along diagonals that cross cell corners
    exactly, and ones at least 4 cells long."""
    w, h = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.2, 0.4]))
    cells[0, 0] = False
    segments = []
    for _ in range(draw(st.integers(1, 20))):
        ax, ay = coordinate(draw, w), coordinate(draw, h)
        shape = draw(st.sampled_from(["equal", "one cell", "adjacent", "corners", "long", "any"]))
        if shape == "equal":
            bx, by = ax, ay
        elif shape == "one cell":  # the sum may round up to the next integer
            bx = math.floor(ax) + draw(st.floats(0.0, 1.0, exclude_max=True))
            by = math.floor(ay) + draw(st.floats(0.0, 1.0, exclude_max=True))
            bx = min(bx, math.nextafter(math.floor(ax) + 1.0, -math.inf))
            by = min(by, math.nextafter(math.floor(ay) + 1.0, -math.inf))
        elif shape == "adjacent":
            sx, sy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
            bx = min(max(ax + sx * draw(st.sampled_from([0.5, 1.0, 1.5])), 0.0), w - 0.5)
            by = min(max(ay + sy * draw(st.sampled_from([0.5, 1.0, 1.5])), 0.0), h - 0.5)
        elif shape == "corners":  # from a corner or cell centre at 45 degrees
            ax, ay = math.floor(ax) + draw(st.sampled_from([0.0, 0.5])), math.floor(ay)
            ay += ax - math.floor(ax)
            n = draw(st.integers(1, min(w, h)))
            sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
            bx, by = ax + sx * n, ay + sy * n
            assume(0 <= bx < w and 0 <= by < h)
        elif shape == "long":
            bx = draw(st.floats(0.0, w, exclude_max=True))
            by = coordinate(draw, h)
            assume(abs(math.floor(bx) - math.floor(ax)) + abs(math.floor(by) - math.floor(ay)) >= 4)
        else:
            bx, by = coordinate(draw, w), coordinate(draw, h)
        segments.append((Point(ax, ay), Point(bx, by)))
    return GridMap(cells), segments


class ReadCells:
    """A map's rows as walk_segment and segment_clear read them, rows[y][x],
    recording each (x, y) read before the read itself, out-of-range ones
    included."""

    def __init__(self, grid):
        self.rows = grid.cells.tolist()
        self.read = []

    def __getitem__(self, y):
        return _ReadRow(self, y)


class _ReadRow:
    def __init__(self, cells, y):
        self.cells, self.y = cells, y

    def __getitem__(self, x):
        self.cells.read.append((x, self.y))
        return self.cells.rows[self.y][x]


def answer(check, *args):
    """check's answer, or the type of the exception it raised."""
    try:
        return check(*args)
    except IndexError as exc:
        return type(exc)


def outside_the_box(read, p, q):
    """The cells of read that lie outside the box of p's and q's cells."""
    (px, py), (qx, qy) = p.cell(), q.cell()
    x0, x1, y0, y1 = min(px, qx), max(px, qx), min(py, qy), max(py, qy)
    return [(x, y) for x, y in read if not (x0 <= x <= x1 and y0 <= y <= y1)]


# (map size, blocked cells, a, b, answers from a to b and from b to a) of
# segments on which sampled_reference.walk_segment reads a cell past b's cell
WALKS_PAST_THE_BOX = [
    # toward y = 63.99999999999999 it steps into row 64 and raises IndexError
    (64, [(30, 50)], (4.000000000000001, 44.99999999999999), (55.0, 63.99999999999999),
     (IndexError, True)),
    # toward y = 0.0 it steps into row -1, which wraps to row 15
    (16, [(6, 15), (1, 0)], (1.9925410672206105, 10.000000000000002), (7.0, 0.0),
     (False, True)),
    # toward (17.0, 13.999999999999998) it meets an exact corner crossing at
    # (17, 14) and reads the blocked corner cell above the end cell
    (29, [(17, 10), (17, 14)], (4.0, 0.9999999999999999), (17.0, 13.999999999999998),
     (False, True)),
]


def walk_past_the_box(size, blocked, a, b, walked):
    return map_with_blocked(blocked, size, size), [(Point(*a), Point(*b))]


class TestSegmentClear:
    @settings(max_examples=300, deadline=None)
    @given(segments_on_maps())
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[0]))
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[1]))
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[2]))
    def test_equals_the_cell_walk(self, instance):
        grid, segments = instance
        for a, b in segments:
            for p, q in ((a, b), (b, a)):
                cells = ReadCells(grid)
                walked = answer(sampled_reference.walk_segment, grid, p, q, cells)
                if outside_the_box(cells.read, p, q):
                    # the walk stepped past q's cell on rounding; every point of
                    # the segment floors into the box, which segment_clear's
                    # walk never leaves
                    assert grid.segment_clear(p, q) is True
                else:
                    assert grid.segment_clear(p, q) == walked

    @settings(max_examples=300, deadline=None)
    @given(segments_on_maps())
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[0]))
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[1]))
    @example(walk_past_the_box(*WALKS_PAST_THE_BOX[2]))
    def test_reads_only_inside_the_cell_box(self, instance):
        grid, segments = instance
        grid.segment_clear(*segments[0])  # builds the rows and the box counts
        for a, b in segments:
            for p, q in ((a, b), (b, a)):
                grid._rows = cells = ReadCells(grid)
                grid.segment_clear(p, q)
                assert cells.read and outside_the_box(cells.read, p, q) == []

    @pytest.mark.parametrize("size, blocked, a, b, walked", WALKS_PAST_THE_BOX)
    def test_equals_exact_arithmetic_where_the_walk_left_the_box(self, size, blocked, a, b, walked):
        g = map_with_blocked(blocked, size, size)
        a, b = Point(*a), Point(*b)
        assert (answer(sampled_reference.walk_segment, g, a, b),
                answer(sampled_reference.walk_segment, g, b, a)) == walked
        assert sampled_reference.exact_clear(g, a, b) is True
        assert g.segment_clear(a, b) is True and g.segment_clear(b, a) is True

    def test_a_checked_map_still_pickles(self):
        g = GridMap(np.eye(6, dtype=bool))
        assert not g.segment_clear(Point(0.5, 5.5), Point(5.5, 0.5))
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert not copy.segment_clear(Point(0.5, 5.5), Point(5.5, 0.5))
        assert copy.segment_clear(Point(1.5, 0.5), Point(5.5, 4.5))

    def test_clear_where_the_walk_steps_past_the_end_cell(self):
        # the walk toward y = 15.0 crosses the line y = 15 at t just below 1
        # on rounding, and reads the blocked cell (1, 14) below the end cell
        cells = np.zeros((32, 32), dtype=bool)
        cells[14, 1] = True
        g = GridMap(cells)
        a, b = Point(30.5, 22.5), Point(0.9999999999999999, 15.0)
        assert sampled_reference.walk_segment(g, a, b) is False
        assert g.segment_clear(a, b) is True
        assert segment_free(g, a, b, 0.001)

    def test_dominates_sampled_checks(self):
        # a clear segment can never fail a sampled check, at any resolution
        rng = np.random.default_rng(2)
        for trial in range(40):
            g = GridMap(rng.random((12, 12)) < 0.3)
            for _ in range(25):
                a = Point(rng.uniform(0, 12), rng.uniform(0, 12))
                b = Point(rng.uniform(0, 12), rng.uniform(0, 12))
                if g.segment_clear(a, b):
                    assert segment_free(g, a, b, 0.01)
                    assert segment_free(g, a, b, 0.25)

    def test_detects_what_fine_sampling_detects(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            g = GridMap(rng.random((12, 12)) < 0.3)
            for _ in range(25):
                a = Point(rng.uniform(0, 12), rng.uniform(0, 12))
                b = Point(rng.uniform(0, 12), rng.uniform(0, 12))
                if not segment_free(g, a, b, 0.005):
                    assert not g.segment_clear(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        g = GridMap(rng.random((10, 10)) < 0.35)
        for _ in range(300):
            a = Point(rng.uniform(0, 10), rng.uniform(0, 10))
            b = Point(rng.uniform(0, 10), rng.uniform(0, 10))
            assert g.segment_clear(a, b) == g.segment_clear(b, a)

    def test_exact_corner_crossing_is_conservative(self):
        # diagonal through the corner of a blocked cell: the corner instant
        # lies in the blocked cell, so the segment is not clear
        cells = np.zeros((4, 4), dtype=bool)
        cells[2, 2] = True
        g = GridMap(cells)
        assert not g.segment_clear(Point(1.0, 1.0), Point(3.0, 3.0))
        # but passing below the blocked cell entirely is fine
        assert g.segment_clear(Point(1.5, 1.0), Point(3.5, 2.0))

    @pytest.mark.parametrize(
        "a, b",
        [
            (Point(4.0, 1.5), Point(1.5, 1.5)),  # x == width
            (Point(1.5, 1.5), Point(1.5, 4.0)),  # y == height
            (Point(-0.5, 1.5), Point(1.5, 1.5)),
            (Point(1.5, 1.5), Point(1.5, -1e-300)),
        ],
    )
    def test_endpoint_outside_map_raises(self, a, b):
        g = empty_map()
        bad = a if not (0 <= a.x < g.width and 0 <= a.y < g.height) else b
        message = f"segment endpoint ({bad.x}, {bad.y}) out of bounds"
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            g.segment_clear(a, b)

    def test_negative_zero_endpoint_lies_in_cell_zero(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[1, 0] = True
        g = GridMap(cells)
        assert g.segment_clear(Point(-0.0, 0.5), Point(3.5, -0.0))
        assert not g.segment_clear(Point(-0.0, 1.5), Point(3.5, 1.5))
        # an endpoint just inside the far edge is in the last cell
        assert g.segment_clear(Point(3.9999999999999996, 3.9999999999999996), Point(1.5, 3.5))


class TestGenerateMap:
    def test_deterministic(self):
        spec = ObstacleSpec()
        a = generate_map(99, 32, 32, spec)
        b = generate_map(99, 32, 32, spec)
        assert a == b

    def test_zero_obstacles(self):
        g = generate_map(1, 16, 16, ObstacleSpec(count_range=(0, 0), density_range=(0.0, 0.0)))
        assert g.density() == 0.0

    def test_density_within_bounds(self):
        g = generate_map(7, 64, 64, ObstacleSpec(density_range=(0.15, 0.35)))
        assert 0.15 <= g.density() <= 0.35

    def test_largest_component_dominates(self):
        g = generate_map(11, 64, 64, ObstacleSpec(density_range=(0.2, 0.3)))
        free = (~g.cells).sum()
        assert len(g.largest_component_cells()) >= 0.5 * free


class TestPlaceGoals:
    def test_postconditions(self):
        g = empty_map(32, 32)
        goals = place_goals(g, 5, 3, min_separation=4)
        assert len(goals) == 5
        pts = list(goals)
        for i in range(5):
            assert g.is_free(pts[i])
            for j in range(i + 1, 5):
                assert pts[i].distance_to(pts[j]) >= 4

    def test_infeasible_separation(self):
        g = empty_map(2, 2)
        with pytest.raises(PlacementFailed):
            place_goals(g, 2, 5, min_separation=10)

    def test_refuses_past_the_packing_bound_before_any_draw(self):
        # two disks of radius s/2 inside the 4x4 map grown by s/2: 2*pi*s^2/4 <= (4+s)^2,
        # which holds up to s = 15.79; just past it no seed is tried, even an invalid one
        g = empty_map(4, 4)
        with pytest.raises(PlacementFailed, match=re.escape(
            "2 goals with separation 16 cannot fit a 4x4 map: m*pi*s^2/4 > (W+s)*(H+s)"
        )):
            place_goals(g, 2, -1, min_separation=16)
        with pytest.raises(PlacementFailed, match="after 100 restarts"):
            place_goals(g, 2, 5, min_separation=15.7)

    def test_deterministic(self):
        g = generate_map(4, 32, 32)
        assert place_goals(g, 4, 17, 3) == place_goals(g, 4, 17, 3)

    def test_same_component(self):
        # two chambers split by a full wall; goals must not straddle it
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        goals = place_goals(g, 4, 2)
        labels = g.component_labels()
        comp = {labels[p.cell()[1], p.cell()[0]] for p in goals}
        assert len(comp) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.integers(3, 20),
        h=st.integers(3, 20),
        density=st.sampled_from([0.0, 0.2, 0.4]),
        map_seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 8),
        seed=st.integers(0, 2**64 - 1),
        separation=st.sampled_from([0.0, 1.0, 1.5, 2.5, 4.0, 7.0]),
    )
    def test_matches_list_reference(self, w, h, density, map_seed, m, seed, separation):
        # the same goals, or the same failure, as the list-of-Points loop
        cells = np.random.default_rng(map_seed).random((h, w)) < density
        if cells.all():
            cells[0, 0] = False
        g = GridMap(cells)

        def outcome(place):
            try:
                return [repr(p) for p in place(g, m, seed, separation)]
            except PlacementFailed as exc:
                return str(exc)

        assert outcome(place_goals) == outcome(sampled_reference.place_goals)


def reference_labels(cells):
    """scipy's 4-connected labels of the free cells: an independent reference."""
    return ndimage.label(~cells, structure=ndimage.generate_binary_structure(2, 1))[0]


@st.composite
def label_maps(draw):
    """Maps of 2-40 cells a side, 2xN and Nx2 included, in the shapes that stress
    a run-based labeling: noise, corner pinches, one-cell runs, serpentines."""
    thin = draw(st.sampled_from(["none", "rows", "cols"]))
    h = 2 if thin == "rows" else draw(st.integers(2, 40))
    w = 2 if thin == "cols" else draw(st.integers(2, 40))
    kind = draw(st.sampled_from(
        ["noise", "checkerboard", "one-cell-runs", "all-free", "one-free", "serpentine"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.random((h, w)) < draw(st.floats(0.0, 0.9))
    ys, xs = np.indices((h, w))
    if kind == "noise":
        cells = noise
    elif kind == "checkerboard":  # every free cell meets the next only at a corner
        cells = (ys + xs) % 2 == draw(st.integers(0, 1))
    elif kind == "one-cell-runs":  # free columns one cell wide, some cut by noise
        cells = (xs % 2 == 1) | (noise & (rng.random((h, w)) < 0.3))
    elif kind == "all-free":
        cells = np.zeros((h, w), dtype=bool)
    elif kind == "one-free":
        cells = np.ones((h, w), dtype=bool)
    else:  # walls on odd rows, each open at the end opposite the last one
        cells = ys % 2 == 1
        cells[1::4, -1] = False
        cells[3::4, 0] = False
    if draw(st.booleans()):
        cells = cells.T
    cells = np.array(cells, dtype=bool)
    if cells.all():
        cells[rng.integers(cells.shape[0]), rng.integers(cells.shape[1])] = False
    return cells


class TestComponentLabels:
    @settings(max_examples=120, deadline=None)
    @given(label_maps())
    def test_equals_scipy_label(self, cells):
        labels = GridMap(cells).component_labels()
        expected = reference_labels(cells)
        assert labels.dtype == expected.dtype == np.int32
        assert np.array_equal(labels, expected)

    def test_large_noise_map(self):
        # tens of thousands of runs: a recursive union step would hit the depth limit
        cells = np.random.default_rng(512).random((512, 512)) < 0.4
        labels = GridMap(cells).component_labels()
        run_starts = np.count_nonzero(~cells[:, 0]) + np.count_nonzero(cells[:, :-1] & ~cells[:, 1:])
        assert run_starts > 30000
        assert np.array_equal(labels, reference_labels(cells))

    def test_cached_and_read_only(self):
        g = generate_map(3, 32, 32)
        labels = g.component_labels()
        assert g.component_labels() is labels
        assert not labels.flags.writeable

    def test_largest_component_cells_cached_and_read_only(self):
        g = generate_map(3, 32, 32)
        cells = g.largest_component_cells()
        assert g.largest_component_cells() is cells
        assert not cells.flags.writeable
        labels = g.component_labels()
        sizes = np.bincount(labels.ravel())[1:]
        assert len(cells) == sizes.max()
        assert set(labels[cells[:, 1], cells[:, 0]].tolist()) == {sizes.argmax() + 1}


class TestMapFiles:
    def test_text_round_trip(self, tmp_path):
        g = generate_map(21, 24, 17, ObstacleSpec(density_range=(0.1, 0.3)))
        path = tmp_path / "m.map"
        save_map(path, g)
        assert load_map(path) == g

    def test_pgm_round_trip(self, tmp_path):
        g = generate_map(22, 19, 23, ObstacleSpec(density_range=(0.1, 0.3)))
        path = tmp_path / "m.pgm"
        save_map(path, g)
        assert load_map(path) == g

    def test_text_format_content(self, tmp_path):
        cells = np.zeros((2, 3), dtype=bool)
        cells[0, 1] = True
        path = tmp_path / "m.map"
        save_map(path, GridMap(cells))
        assert path.read_text() == "3 2\n.#.\n...\n"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("3\n...\n...\n")
        with pytest.raises(FormatError, match="line 1"):
            load_map(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_text("3 2\n..\n...\n")
        with pytest.raises(FormatError, match="line 2"):
            load_map(path)


    @pytest.mark.parametrize("text, message", [
        ("3 2\n.x.\n..\n", "line 2: invalid character 'x'"),
        ("3 2\n..\n.x.\n", "line 2: expected 3 characters, got 2"),
        ("3 2\n...\n.x.\n", "line 3: invalid character 'x'"),
        ("3 2\n...\n..\n", "line 3: expected 3 characters, got 2"),
        ("3 2\n...\n", "expected 2 rows, file has 1"),
        ("3 2\n...\x0c...\n...\n", "line 2: expected 3 characters, got 7"),
        ("-3 2\n", "line 1: negative dimensions '-3 2'"),
        ("2 2\n##\n##\n", "map has no free cell"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "m.map"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(FormatError) as info:
            load_map(path)
        assert str(info.value).startswith(str(path)) and str(info.value).endswith(message)

    def test_any_line_end(self, tmp_path):
        path = tmp_path / "m.map"
        path.write_bytes(b"3 2\r\n.#.\r...")
        assert np.array_equal(load_map(path).cells, [[False, True, False], [False, False, False]])

    def test_text_after_the_last_row(self, tmp_path):
        g = generate_map(21, 24, 24, ObstacleSpec(density_range=(0.1, 0.3)))
        path = tmp_path / "m.map"
        save_map(path, g)
        with open(path, "a") as f:
            f.write("\n  \n")  # blank trailing lines are skipped
        assert load_map(path) == g
        with open(path, "a") as f:
            f.write("#.#\n")
        message = f"{path} line 28: text after the last of 24 rows"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_map(path)

    def test_bytes_after_the_pgm_raster(self, tmp_path):
        path = tmp_path / "m.pgm"
        save_map(path, empty_map(8, 8))
        with open(path, "ab") as f:
            f.write(b"junk")
        message = f"{path}: 4 bytes after the 8x8 raster"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_map(path)

    def test_bytes_after_an_external_mask_raster(self, tmp_path):
        goals = GoalSet([Point(1.5, 1.5), Point(6.5, 5.5)])
        export_predictions(tmp_path, empty_map(8, 8), goals, GridOracleEstimator())
        path = tmp_path / "pair_0_1.pgm"
        with open(path, "ab") as f:
            f.write(b"\x00\xff")
        message = f"{path}: 2 bytes after the 8x8 raster"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_external_predictions(tmp_path)


class TestGoalFiles:
    def test_round_trip(self, tmp_path):
        goals = GoalSet([Point(3.5, 2.0), Point(10.0, 11.25), Point(0.125, 7.75)])
        path = tmp_path / "g.csv"
        save_goals(path, goals)
        assert load_goals(path) == goals

    def test_documented_example(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("3.5,2.0\n10.0,11.25\n")
        goals = load_goals(path)
        assert len(goals) == 2
        assert goals[0] == Point(3.5, 2.0)
        assert goals[1] == Point(10.0, 11.25)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(FormatError, match="row 1"):
            load_goals(path)

    def test_needs_two_goals(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(FormatError):
            load_goals(path)

    def test_duplicate_rows_name_both(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.5,1.5\n2.5,2.5\n1.50,1.5\n")
        with pytest.raises(FormatError, match=r"row 3 repeats row 1: \(1\.5, 1\.5\)$"):
            load_goals(path)

    @pytest.mark.parametrize("row", ["inf,1.0", "1.0,nan"])
    def test_non_finite_row(self, tmp_path, row):
        path = tmp_path / "g.csv"
        path.write_text(f"0.5,0.5\n{row}\n")
        with pytest.raises(FormatError, match=f"row 2: bad entry '{row}'"):
            load_goals(path)


class TestGoalSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GoalSet([Point(1, 1), Point(1, 1)])

    def test_validate_on_blocked_cell(self):
        g = map_with_blocked([(2, 2)], w=4, h=4)
        goals = GoalSet([Point(0.5, 0.5), Point(2.5, 2.5)])
        with pytest.raises(ValueError, match="goal 1"):
            goals.validate_on(g)
