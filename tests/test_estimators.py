import collections
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multigoal import (
    EuclideanEstimator,
    GoalSet,
    GridMap,
    GridOracleEstimator,
    ObstacleSpec,
    Point,
    RegionMask,
    WeightMatrix,
    build_weight_matrix,
    default_dilation_radius,
    dilate_path_to_region,
    generate_map,
    grid_shortest_path,
    place_goals,
)
from multigoal import estimators
from multigoal.errors import FormatError, InvalidArgument, Unreachable
from multigoal.estimators import (
    NEIGHBORS_8,
    export_predictions,
    load_external_predictions,
    shortest_paths_from,
)
from multigoal.pgm import write_pgm
import oracle_reference as ref

SQRT2 = math.sqrt(2.0)


def empty_map(w, h):
    return GridMap(np.zeros((h, w), dtype=bool))


def same_component(grid, a, b):
    """True iff the oracle can reach b's cell from a's cell."""
    labels = grid.component_labels()
    (ax, ay), (bx, by) = a.cell(), b.cell()
    return labels[ay, ax] != 0 and labels[ay, ax] == labels[by, bx]


def cell_free(grid, x, y):
    """Free test by cell index; out-of-range indices count as blocked."""
    return 0 <= x < grid.width and 0 <= y < grid.height and not grid.cells[y, x]


def relaxation_distances(grid, start_cell):
    """Independent oracle: Bellman-Ford style relaxation to a fixpoint over all
    cells, with the same step costs and no-corner-cutting rule."""
    dist = {start_cell: 0.0}
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]
    changed = True
    while changed:
        changed = False
        for (x, y), d in sorted(dist.items()):
            for dx, dy, c in moves:
                nx, ny = x + dx, y + dy
                if not cell_free(grid, nx, ny):
                    continue
                if dx and dy and not (cell_free(grid, x + dx, y) and cell_free(grid, x, y + dy)):
                    continue
                nd = d + c
                if nd < dist.get((nx, ny), math.inf) - 1e-12:
                    dist[(nx, ny)] = nd
                    changed = True
    return dist


class TestGridShortestPath:
    def test_straight_diagonal(self):
        g = empty_map(3, 3)
        path, length = grid_shortest_path(g, Point(0.5, 0.5), Point(2.5, 2.5))
        assert length == pytest.approx(2 * SQRT2, abs=1e-12)
        assert path[0] == (0, 0) and path[-1] == (2, 2)

    def test_center_blocked_detour(self):
        cells = np.zeros((3, 3), dtype=bool)
        cells[1, 1] = True
        g = GridMap(cells)
        path, length = grid_shortest_path(g, Point(0.5, 0.5), Point(2.5, 2.5))
        oracle = relaxation_distances(g, (0, 0))[(2, 2)]
        assert oracle == pytest.approx(4.0, abs=1e-12)
        assert length == pytest.approx(oracle, abs=1e-12)

    def test_unreachable(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[:, 4] = True
        g = GridMap(cells)
        with pytest.raises(Unreachable):
            grid_shortest_path(g, Point(1.5, 1.5), Point(6.5, 6.5))

    def test_same_cell(self):
        g = empty_map(4, 4)
        path, length = grid_shortest_path(g, Point(1.2, 1.2), Point(1.8, 1.8))
        assert path == [(1, 1)] and length == 0.0

    def test_matches_relaxation_oracle_on_random_maps(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            cells = rng.random((10, 10)) < 0.25
            cells[0, 0] = False
            g = GridMap(cells)
            oracle = relaxation_distances(g, (0, 0))
            for (cx, cy), expect in sorted(oracle.items())[:40]:
                _, length = grid_shortest_path(g, Point(0.5, 0.5), Point(cx + 0.5, cy + 0.5))
                assert length == pytest.approx(expect, abs=1e-9)

    def test_no_corner_cutting(self):
        # diagonal squeeze: (0,0) and (1,1) free, (1,0) and (0,1) blocked
        cells = np.zeros((4, 4), dtype=bool)
        cells[0, 1] = True
        cells[1, 0] = True
        g = GridMap(cells)
        with pytest.raises(Unreachable):
            grid_shortest_path(g, Point(0.5, 0.5), Point(1.5, 1.5))

    def test_path_cells_are_free_and_adjacent(self):
        g = GridMap(np.random.default_rng(3).random((12, 12)) < 0.2)
        cells = g.largest_component_cells()
        a = Point(cells[0][0] + 0.5, cells[0][1] + 0.5)
        b = Point(cells[-1][0] + 0.5, cells[-1][1] + 0.5)
        path, _ = grid_shortest_path(g, a, b)
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert max(abs(x1 - x0), abs(y1 - y0)) == 1
            assert cell_free(g, x1, y1)

    def test_metric_on_small_map(self):
        # symmetry and triangle inequality by exhaustive all-pairs runs
        g = GridMap(np.random.default_rng(5).random((8, 8)) < 0.2)
        cells = [tuple(c) for c in g.largest_component_cells()][:12]
        pts = [Point(x + 0.5, y + 0.5) for x, y in cells]
        d = {}
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                d[i, j] = grid_shortest_path(g, a, b)[1]
        for i in range(len(pts)):
            assert d[i, i] == 0.0
            for j in range(len(pts)):
                assert d[i, j] == pytest.approx(d[j, i], abs=1e-9)
                for k in range(len(pts)):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestDilation:
    def test_radius_zero_is_path_cells(self):
        g = empty_map(8, 8)
        path, _ = grid_shortest_path(g, Point(0.5, 0.5), Point(6.5, 2.5))
        mask = dilate_path_to_region(g, path, 0.0)
        marked = {(x, y) for x, y in np.argwhere(mask.values.T == 1.0)}
        assert marked == set(path)

    def test_huge_radius_covers_free_space(self):
        cells = np.zeros((6, 6), dtype=bool)
        cells[2, 2] = True
        g = GridMap(cells)
        mask = dilate_path_to_region(g, [(0, 0)], radius=100.0)
        assert np.array_equal(mask.values == 1.0, ~g.cells)

    def test_radius_1_5_marks_nine_cells(self):
        # enumerate cell-center distances from (5,5): |dx|,|dy| <= 1 qualifies
        g = empty_map(12, 12)
        expected = {
            (5 + dx, 5 + dy)
            for dx in (-2, -1, 0, 1, 2)
            for dy in (-2, -1, 0, 1, 2)
            if math.hypot(dx, dy) <= 1.5
        }
        assert len(expected) == 9
        mask = dilate_path_to_region(g, [(5, 5)], 1.5)
        marked = {(x, y) for x, y in np.argwhere(mask.values.T == 1.0)}
        assert marked == expected

    def test_obstacles_never_marked(self):
        g = GridMap(np.random.default_rng(9).random((10, 10)) < 0.3)
        cells = g.largest_component_cells()
        mask = dilate_path_to_region(g, [tuple(cells[0])], 3.0)
        assert (mask.values[g.cells] == 0.0).all()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            dilate_path_to_region(empty_map(4, 4), [], 1.0)

    @pytest.mark.parametrize("radius", [-1.0, -1e-9, math.nan])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(InvalidArgument, match="dilation radius must be >= 0"):
            dilate_path_to_region(empty_map(4, 4), [(1, 1)], radius)
        with pytest.raises(InvalidArgument, match="dilation radius must be >= 0"):
            GridOracleEstimator(radius)

    def test_infinite_radius_covers_free_space(self):
        g = GridMap(np.random.default_rng(4).random((7, 9)) < 0.3)
        mask = dilate_path_to_region(g, [tuple(g.free_cells()[0])], math.inf)
        assert np.array_equal(mask.values == 1.0, ~g.cells)
        assert GridOracleEstimator(math.inf).dilation_radius == math.inf

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_path_off_the_map_rejected(self, cell):
        with pytest.raises(InvalidArgument, match="path leaves the 4x4 map"):
            dilate_path_to_region(empty_map(4, 4), [(1, 1), cell], 1.0)


def estimate_pair(est, grid, a, b):
    """The estimate for the single pair of the 2-goal set (a, b)."""
    return est.estimate_all(grid, GoalSet([a, b]))[(0, 1)]


class TestEuclideanEstimator:
    def test_3_4_5(self):
        g = empty_map(8, 8)
        pe = estimate_pair(EuclideanEstimator(), g, Point(0, 0), Point(3, 4))
        assert pe.distance == 5.0

    def test_translation_invariance(self):
        g = empty_map(8, 8)
        assert estimate_pair(EuclideanEstimator(), g, Point(1, 1), Point(4, 5)).distance == 5.0

    def test_mask_is_free_cells(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[1, 2] = True
        g = GridMap(cells)
        pe = estimate_pair(EuclideanEstimator(), g, Point(0.5, 0.5), Point(3.5, 3.5))
        assert np.array_equal(pe.mask.values == 1.0, ~g.cells)


class TestEstimatePair:
    def wall_gap_map(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[:, 4] = True
        cells[6, 4] = False
        return GridMap(cells)

    def test_oracle_on_empty_map(self):
        g = empty_map(3, 3)
        pe = estimate_pair(GridOracleEstimator(), g, Point(0.5, 0.5), Point(2.5, 2.5))
        assert pe.distance == pytest.approx(2 * SQRT2, abs=1e-12)
        assert pe.mask.values[0, 0] == 1.0 and pe.mask.values[2, 2] == 1.0

    def test_euclidean_equals_oracle_without_obstacles(self):
        g = empty_map(3, 3)
        eu = estimate_pair(EuclideanEstimator(), g, Point(0.5, 0.5), Point(2.5, 2.5))
        assert eu.distance == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_oracle_detour_exceeds_euclidean(self):
        g = self.wall_gap_map()
        a, b = Point(1.5, 1.5), Point(6.5, 1.5)
        oracle = estimate_pair(GridOracleEstimator(), g, a, b)
        expect = relaxation_distances(g, a.cell())[b.cell()]
        assert oracle.distance == pytest.approx(expect, abs=1e-9)
        assert oracle.distance > a.distance_to(b)

    def test_determinism(self):
        g = self.wall_gap_map()
        a, b = Point(1.5, 1.5), Point(6.5, 1.5)
        p1 = estimate_pair(GridOracleEstimator(), g, a, b)
        p2 = estimate_pair(GridOracleEstimator(), g, a, b)
        assert p1.distance == p2.distance
        assert np.array_equal(p1.mask.values, p2.mask.values)


class TestBuildWeightMatrix:
    def test_euclidean_3_goals(self):
        g = empty_map(16, 16)
        goals = GoalSet([Point(1, 1), Point(4, 5), Point(13, 1)])
        w, masks = build_weight_matrix(g, goals, EuclideanEstimator())
        assert w[0, 1] == 5.0
        assert w[0, 2] == 12.0
        assert w[1, 2] == pytest.approx(math.hypot(9, 4), abs=1e-12)

    def test_exact_symmetry_zero_diagonal(self):
        g = generate_map(13, 32, 32, None)
        goals = place_goals(g, 6, 2, 3)
        w, _ = build_weight_matrix(g, goals, GridOracleEstimator())
        assert (w.w == w.w.T).all()
        assert (np.diag(w.w) == 0).all()

    def test_oracle_dominates_euclidean(self):
        cells = np.zeros((12, 12), dtype=bool)
        cells[3:9, 5:7] = True
        g = GridMap(cells)
        goals = GoalSet([Point(1.5, 5.5), Point(10.5, 5.5), Point(1.5, 10.5), Point(10.5, 1.5)])
        w_o, _ = build_weight_matrix(g, goals, GridOracleEstimator())
        w_e, _ = build_weight_matrix(g, goals, EuclideanEstimator())
        for i in range(4):
            for j in range(i + 1, 4):
                assert w_o[i, j] >= w_e[i, j] - 1e-12

    def test_unreachable_aborts_with_pair(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[:, 4] = True
        g = GridMap(cells)
        goals = GoalSet([Point(1.5, 1.5), Point(2.5, 2.5), Point(6.5, 6.5)])
        with pytest.raises(Unreachable, match=r"^goal pair \(0, 2\) is unreachable: "):
            build_weight_matrix(g, goals, GridOracleEstimator())


@st.composite
def maps_with_goals(draw, max_side=9, goal_counts=(2, 6), blocked_one_in=(4,)):
    """A random map of 2 to max_side cells a side, one cell in one of
    blocked_one_in blocked (a quarter by default), and goal_counts distinct
    goals in free cells (2-6 by default); goals may share a cell or sit in
    different components."""
    w = draw(st.integers(2, max_side))
    h = draw(st.integers(2, max_side))
    odds = draw(st.sampled_from(blocked_one_in))
    blocked = draw(st.lists(st.integers(0, odds - 1), min_size=w * h, max_size=w * h))
    cells = np.array([v == 0 for v in blocked]).reshape(h, w)
    assume(not cells.all())
    grid = GridMap(cells)
    free = grid.free_cells()
    assume(3 * len(free) >= goal_counts[0])
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(free) - 1), st.sampled_from([0.25, 0.5, 0.75])),
            min_size=goal_counts[0],
            max_size=goal_counts[1],
            unique=True,
        )
    )
    goals = GoalSet([Point(free[k][0] + off, free[k][1] + off) for k, off in picks])
    return grid, goals


def one_goal_per_cell(grid, goals):
    """goals as the oracle takes them: where two share a cell, check that the
    oracle refuses the first such pair in (i, j) order, then keep each cell's
    first goal (the draw is discarded when fewer than 2 are left)."""
    m = len(goals)
    shared = [(i, j) for i in range(m) for j in range(i + 1, m) if goals[i].cell() == goals[j].cell()]
    if not shared:
        return goals
    i, j = shared[0]
    message = f"goal pair ({i}, {j}) shares cell {goals[i].cell()}"
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        GridOracleEstimator().estimate_all(grid, goals)
    first = {}
    for goal in goals:
        first.setdefault(goal.cell(), goal)
    assume(len(first) >= 2)
    return GoalSet(first.values())


class TestEstimateAll:
    def test_euclidean_shares_one_read_only_mask(self):
        g = generate_map(4, 16, 16, None)
        goals = place_goals(g, 5, 1, 2)
        out = EuclideanEstimator().estimate_all(g, goals)
        masks = {id(pe.mask) for pe in out.values()}
        assert len(out) == 10 and len(masks) == 1
        mask = next(iter(out.values())).mask
        assert not mask.values.flags.writeable
        assert mask == RegionMask((~g.cells).astype(np.float64))
        assert (mask.width, mask.height) == (16, 16)
        for (i, j), pe in out.items():
            assert pe == estimate_pair(EuclideanEstimator(), g, goals[i], goals[j])

    def test_pairs_in_row_major_order(self):
        g = empty_map(12, 12)
        goals = GoalSet([Point(x + 0.5, 3.5) for x in range(0, 12, 3)])
        expect = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert list(GridOracleEstimator().estimate_all(g, goals)) == expect
        assert list(EuclideanEstimator().estimate_all(g, goals)) == expect

    @pytest.mark.parametrize("cells, pair, cell", [
        ([(1.25, 1.25), (1.75, 1.75), (5.5, 5.5)], (0, 1), (1, 1)),
        ([(5.5, 5.5), (1.25, 1.25), (1.75, 1.75)], (1, 2), (1, 1)),
        # the first pair in (i, j) order, not the first repeat met
        ([(1.5, 1.5), (4.1, 4.1), (4.9, 4.9), (1.1, 1.9)], (0, 3), (1, 1)),
    ])
    def test_oracle_refuses_goals_sharing_a_cell(self, monkeypatch, cells, pair, cell):
        # two goals in one cell would be 0 apart, which WeightMatrix refuses
        # without naming the pair
        goals = GoalSet([Point(x, y) for x, y in cells])
        monkeypatch.setattr(estimators, "shortest_paths_from", mock.Mock(side_effect=AssertionError))
        message = f"goal pair {pair} shares cell {cell}"
        grid = empty_map(8, 8)
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            GridOracleEstimator().estimate_all(grid, goals)
        m = len(goals)
        assert len(EuclideanEstimator().estimate_all(grid, goals)) == m * (m - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(maps_with_goals())
    def test_oracle_matches_per_pair_search(self, world):
        grid, goals = world
        goals = one_goal_per_cell(grid, goals)
        est = GridOracleEstimator()
        radius = default_dilation_radius(grid)
        m = len(goals)
        expect, failure = {}, None
        for i in range(m):
            for j in range(i + 1, m):
                try:
                    path, length = grid_shortest_path(grid, goals[i], goals[j])
                except Unreachable:
                    failure = failure or (i, j)
                    continue
                expect[(i, j)] = (length, dilate_path_to_region(grid, path, radius))
        if failure is not None:
            message = re.escape(f"goal pair {failure} is unreachable: ")
            with pytest.raises(Unreachable, match=message):
                est.estimate_all(grid, goals)
            return
        got = est.estimate_all(grid, goals)
        assert list(got) == list(expect)
        for key, (length, mask) in expect.items():
            assert got[key].distance == length
            assert got[key].mask == mask

    @settings(max_examples=150, deadline=None)
    @given(maps_with_goals(max_side=24, goal_counts=(3, 12), blocked_one_in=(4, 8, 10**6)))
    def test_bounded_searches_match_per_source_searches(self, world):
        # every search after the first is bounded by paths through earlier
        # goals; open maps put goals on each other's shortest paths, where
        # the bound equals the path length
        grid, goals = world
        goals = one_goal_per_cell(grid, goals)
        m = len(goals)
        expect = [ref.shortest_paths_from(grid, goals[i], goals[i + 1 :]) for i in range(m - 1)]
        pairs = [(i, j) for i, hits in enumerate(expect) for j, hit in enumerate(hits, start=i + 1)]
        failure = next((pair for pair, hit in zip(pairs, sum(expect, [])) if hit is None), None)
        found = []
        search = estimators.shortest_paths_from

        def recording(*args):
            found.append(search(*args))
            return found[-1]

        with mock.patch.object(estimators, "shortest_paths_from", recording):
            if failure is not None:
                message = re.escape(f"goal pair {failure} is unreachable: ")
                with pytest.raises(Unreachable, match=message):
                    GridOracleEstimator().estimate_all(grid, goals)
                return
            got = GridOracleEstimator().estimate_all(grid, goals)
        assert found == expect
        assert [got[pair].distance for pair in pairs] == [hit[1] for hit in sum(expect, [])]

    def test_searches_after_the_first_are_bounded(self, monkeypatch):
        # on this 64x64 map with 10 goals, the 8 bounded searches settle 0.69
        # of the cells that unbounded ones do, 0.73 counting the first (0.49
        # to 0.87 on the maps of seeds 1-7)
        g = generate_map(1, 64, 64, ObstacleSpec(density_range=(0.15, 0.30)))
        goals = place_goals(g, 10, seed=1)
        n = (g.width + 2) * (g.height + 2)
        search = estimators.shortest_paths_from
        calls = []

        def counting(grid, a, targets, dist=None):
            start = [math.inf] * n if dist is None else dist
            before = list(start)
            hits = search(grid, a, targets, start)
            calls.append((dist is not None, settled(before, start, hits)))
            return hits

        def settled(before, after, hits):
            # the cells reached below the last target's length: each was
            # settled before the search stopped
            stop = max(length for _, length in hits)
            return sum(u != v and v < stop for u, v in zip(before, after))

        monkeypatch.setattr(estimators, "shortest_paths_from", counting)
        GridOracleEstimator().estimate_all(g, goals)
        assert [bounded for bounded, _ in calls] == [False] + [True] * 8
        unbounded = [calls[0][1]]
        for i in range(1, 9):
            start = [math.inf] * n
            hits = search(g, goals[i], goals[i + 1 :], start)
            unbounded.append(settled([math.inf] * n, start, hits))
        assert sum(count for _, count in calls) <= 0.8 * sum(unbounded)

    def test_a_mask_dilates_on_its_first_read_only(self, monkeypatch):
        g = generate_map(4, 24, 24, None)
        goals = place_goals(g, 4, 5, 3)
        calls = []
        dilate = estimators.dilate_path_to_region
        monkeypatch.setattr(
            estimators, "dilate_path_to_region", lambda *args: calls.append(args) or dilate(*args)
        )
        mask = GridOracleEstimator().estimate_all(g, goals)[(0, 1)].mask
        mask.check_shape(g)
        assert calls == [] and (mask.width, mask.height) == (24, 24)
        first = mask.values
        assert mask.values is first and len(mask.cells_at_least(0.5))
        assert len(calls) == 1
        path, _ = grid_shortest_path(g, goals[0], goals[1])
        assert calls == [(g, path, default_dilation_radius(g))]

    @settings(max_examples=60, deadline=None)
    @given(maps_with_goals())
    def test_length_is_sum_of_step_costs(self, world):
        grid, goals = world
        step_cost = {(dx, dy): cost for dx, dy, cost in NEIGHBORS_8}
        found = shortest_paths_from(grid, goals[0], goals[1:])
        assert len(found) == len(goals) - 1
        for b, hit in zip(goals[1:], found):
            if hit is None:
                assert not same_component(grid, goals[0], b)
                continue
            path, length = hit
            assert path[0] == goals[0].cell() and path[-1] == b.cell()
            total = 0.0
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                assert cell_free(grid, x1, y1)
                if x1 != x0 and y1 != y0:
                    assert cell_free(grid, x1, y0) and cell_free(grid, x0, y1)
                total += step_cost[(x1 - x0, y1 - y0)]
            assert abs(total - length) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(maps_with_goals())
    def test_oracle_length_is_symmetric(self, world):
        grid, goals = world
        a, b = goals[0], goals[1]
        try:
            _, forward = grid_shortest_path(grid, a, b)
        except Unreachable:
            with pytest.raises(Unreachable):
                grid_shortest_path(grid, b, a)
            return
        # the two searches add the same step costs in a different order, so
        # the sums may differ in the last bit (3.82842712474619 vs ...903)
        assert abs(grid_shortest_path(grid, b, a)[1] - forward) <= 1e-9


@st.composite
def reference_maps(draw):
    """A small map of one of three kinds: open (every route has many
    equal-length twins), random (about a quarter blocked, so some targets are
    unreachable) or a checkerboard with some cells opened (corner pinches)."""
    w = draw(st.integers(2, 12))
    h = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["open", "random", "checker"]))
    if kind == "open":
        cells = np.zeros((h, w), dtype=bool)
    else:
        coins = draw(st.lists(st.integers(0, 3), min_size=w * h, max_size=w * h))
        coins = np.array(coins).reshape(h, w)
        if kind == "random":
            cells = coins == 0
        else:
            ys, xs = np.indices((h, w))
            cells = ((xs + ys) % 2 == 1) & (coins != 0)
    assume(not cells.all())
    return GridMap(cells)


DATASET_OBSTACLES = ObstacleSpec(count_range=(4, 64), density_range=(0.10, 0.30))


@st.composite
def single_pairs(draw):
    """(map, start, target) for one single-pair search. The map is open (the
    densest ties), a serpentine one-cell corridor (one route, often far longer
    than the octile distance), a wall between the two ends whose one gap, if
    any, is in the last row (reaching it often takes more than three octile
    distances, so only the unbounded search finds the path; no gap leaves
    the pair unreachable), one of reference_maps, or a generated 32x32 map
    like the dataset's. The target is the start in some draws."""
    kind = draw(st.sampled_from(["open", "corridor", "wall", "reference", "generated"]))
    w = draw(st.integers(3, 16))
    h = draw(st.integers(2, 16))
    starts = targets = None
    if kind == "reference":
        grid = draw(reference_maps())
    elif kind == "generated":
        grid = generate_map(draw(st.integers(0, 2**32)), 32, 32, DATASET_OBSTACLES)
    elif kind == "open":
        grid = empty_map(w, h)
    elif kind == "corridor":
        cells = np.ones((h, w), dtype=bool)
        cells[::2] = False
        cells[1::4, -1] = False
        cells[3::4, 0] = False
        grid = GridMap(cells)
    else:
        h = draw(st.integers(8, 16))
        cells = np.zeros((h, w), dtype=bool)
        x0 = draw(st.integers(1, min(w - 2, 3)))
        cells[:, x0] = True
        if draw(st.booleans()):
            cells[-1, x0] = False
        grid = GridMap(cells)
        starts = [(x, y) for x, y in grid.free_cells() if x < x0]
        targets = [(x, y) for x, y in grid.free_cells() if x > x0]
    free = [(x, y) for x, y in grid.free_cells()]
    start = draw(st.sampled_from(starts or free))
    others = [c for c in targets or free if c != start]
    target = start if not others or draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(others))
    return grid, Point(start[0] + 0.5, start[1] + 0.5), Point(target[0] + 0.5, target[1] + 0.5)


class TestMatchesReference:
    """The table-driven search, the bounded single-pair search and the
    disk-row dilation against the plain versions in
    tests/oracle_reference.py, compared for exact equality."""

    @settings(max_examples=80, deadline=None)
    @given(reference_maps(), st.data())
    def test_search(self, grid, data):
        free = grid.free_cells()
        cell = st.sampled_from([Point(x + 0.5, y + 0.5) for x, y in free])
        start = data.draw(cell)
        # targets may repeat and may include the start cell
        targets = data.draw(st.lists(st.one_of(cell, st.just(start)), min_size=1, max_size=5))
        assert shortest_paths_from(grid, start, targets) == ref.shortest_paths_from(
            grid, start, targets
        )

    @settings(max_examples=200, deadline=None)
    @given(single_pairs())
    def test_bounded_search(self, pair):
        grid, a, b = pair
        (expected,) = ref.shortest_paths_from(grid, a, [b])
        if expected is None:
            message = f"no grid path from cell {a.cell()} to cell {b.cell()}"
            with pytest.raises(Unreachable, match=f"^{re.escape(message)}$"):
                grid_shortest_path(grid, a, b)
        else:
            assert grid_shortest_path(grid, a, b) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        single_pairs(),
        st.sampled_from(["exact", "-ulp", "+ulp", 0.9, 1.1, 0.0, -1.0, math.inf, math.nan, 1e300]),
    )
    def test_a_length_hint_changes_no_output(self, pair, hint):
        # a string or a factor is taken relative to the path length (to the
        # map's half-perimeter when there is no path); other hints are absolute
        grid, a, b = pair
        (expected,) = ref.shortest_paths_from(grid, a, [b])
        length = float(grid.width + grid.height) if expected is None else expected[1]
        if hint in ("exact", "-ulp", "+ulp"):
            hint = {"exact": length, "-ulp": math.nextafter(length, -math.inf),
                    "+ulp": math.nextafter(length, math.inf)}[hint]
        elif hint in (0.9, 1.1):
            hint *= length
        if expected is None:
            message = f"no grid path from cell {a.cell()} to cell {b.cell()}"
            with pytest.raises(Unreachable, match=f"^{re.escape(message)}$"):
                grid_shortest_path(grid, a, b, hint)
        else:
            assert grid_shortest_path(grid, a, b, hint) == expected

    @settings(max_examples=150, deadline=None)
    @given(single_pairs(), st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    def test_a_bound_at_the_path_length_needs_one_search(self, pair, over):
        # h is a lower bound on every cell's distance to the target, so a bound
        # at the path length keeps the whole optimal path. An h that overshoots
        # anywhere on it (octile + 1, 1.5 x Euclidean) drops a cell, and the
        # search then falls back, which the equality tests above cannot see.
        grid, a, b = pair
        (expected,) = ref.shortest_paths_from(grid, a, [b])
        assume(expected is not None)
        with mock.patch.object(estimators, "shortest_paths_from", wraps=shortest_paths_from) as search:
            assert grid_shortest_path(grid, a, b, expected[1] * (1.0 + over)) == expected
        assert search.call_count == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 20).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(2, 20).filter(lambda h: h != w))
        ),
        st.data(),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 0.9, 1.0, 1.15, 1.5, 3.0, 1e300]),
                 min_size=1, max_size=3),
    )
    def test_the_bound_is_built_only_inside_its_box(self, size, data, factors):
        # non-square maps with the start and one to three ends on the border,
        # often in a corner; each end's U is a multiple of its path length (or
        # of the half-perimeter)
        w, h = size
        coins = data.draw(st.lists(st.integers(0, 4), min_size=w * h, max_size=w * h))
        cells = np.array(coins).reshape(h, w) == 0
        corners = {(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)}
        for x, y in corners:
            cells[y, x] = False
        grid = GridMap(cells)
        border = [(x, y) for x, y in grid.free_cells().tolist() if x in (0, w - 1) or y in (0, h - 1)]
        cell = st.one_of(st.sampled_from(sorted(corners)), st.sampled_from(border))
        a, *bs = (Point(x + 0.5, y + 0.5) for x, y in [data.draw(cell) for _ in range(len(factors) + 1)])
        expected = ref.shortest_paths_from(grid, a, bs)
        ends = []
        for b, found, factor in zip(bs, expected, factors):
            bound = factor * (w + h if found is None else found[1])
            ends.append((b, bound + 1e-6 * (1.0 + bound)))

        # the full-map list of each end: lim - octile(n, b)
        fulls = []
        for b, lim in ends:
            bx, by = b.cell()
            dx = np.abs(np.arange(-1, w + 1) - bx)
            dy = np.abs(np.arange(-1, h + 1) - by)[:, None]
            fulls.append((lim - ((SQRT2 - 1.0) * np.minimum(dx, dy) + np.maximum(dx, dy))).ravel().tolist())
        boxed = estimators._bounded_dist(grid, a, ends)
        assert len(boxed) == len(fulls[0])
        (ax, ay), pw = a.cell(), w + 2
        for i, v in enumerate(boxed):
            x, y = i % pw - 1, i // pw - 1
            us = [full[i] for full in fulls]
            inside = [  # the cell is in an end's box (the padded ring is blocked)
                0 <= x < w and 0 <= y < h
                and max(abs(x - ax) + abs(x - b.cell()[0]), abs(y - ay) + abs(y - b.cell()[1])) <= lim + 2
                for b, lim in ends
            ]
            if len(ends) == 1:
                # inside the box bit for bit, negative values too; 0.0 only outside it
                assert v == us[0] if inside[0] else v in (0.0, us[0]), (x, y)
            else:
                # an end's own value bit for bit, or 0.0, which drops a push as
                # a negative value does, and at least each value whose box holds the cell
                assert v == 0.0 or v in us, (x, y)
                assert all(v >= u for u, held in zip(us, inside) if held), (x, y)

        # the same pushes are kept as with the max of the full-map lists, so
        # the search ends the same way, and an end whose bound is not below
        # its path length gets the full search's path
        kept = []
        for dist in (boxed, [max(us) for us in zip(*fulls)]):
            before = list(dist)
            found = shortest_paths_from(grid, a, bs, dist)
            cells_lowered = {i for i, (u, v) in enumerate(zip(before, dist)) if u != v}
            kept.append((found, cells_lowered - {(ay + 1) * pw + ax + 1}))
        assert kept[0] == kept[1]
        for hit, want, factor in zip(kept[0][0], expected, factors):
            if want is not None and factor >= 1.0:
                assert hit == want
            elif len(bs) == 1 and hit is not None:
                assert hit == want

    def test_bounded_search_falls_back_to_the_full_search(self):
        # the ends are two cells apart across a wall whose gap is 23 rows away,
        # so the path is longer than 3 octile distances and every bound fails
        cells = np.zeros((24, 5), dtype=bool)
        cells[:-1, 2] = True
        grid = GridMap(cells)
        a, b = Point(1.5, 0.5), Point(3.5, 0.5)
        with mock.patch.object(estimators, "shortest_paths_from", wraps=shortest_paths_from) as search:
            found = grid_shortest_path(grid, a, b)
        assert found == ref.shortest_paths_from(grid, a, [b])[0]
        assert found[1] > 3 * 2.0
        assert search.call_count == 4
        assert search.call_args == mock.call(grid, a, [b], None)  # the last search has no bound

    @pytest.mark.parametrize("hint", [math.nan, math.inf])
    @pytest.mark.parametrize("reachable", [True, False])
    def test_a_non_finite_hint_costs_one_full_search(self, hint, reachable):
        cells = np.zeros((24, 5), dtype=bool)
        cells[:-1 if reachable else None, 2] = True
        grid = GridMap(cells)
        a, b = Point(1.5, 0.5), Point(3.5, 0.5)
        with mock.patch.object(estimators, "shortest_paths_from", wraps=shortest_paths_from) as search:
            if reachable:
                assert grid_shortest_path(grid, a, b, hint) == ref.shortest_paths_from(grid, a, [b])[0]
            else:
                with pytest.raises(Unreachable, match=r"^no grid path from cell \(1, 0\) to cell \(3, 0\)$"):
                    grid_shortest_path(grid, a, b, hint)
        assert search.call_args_list == [mock.call(grid, a, [b], None)]

    @settings(max_examples=80, deadline=None)
    @given(
        reference_maps(),
        st.data(),
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, math.sqrt(8), 3.7, 1e9, math.inf]),
            st.floats(0.0, 20.0),
        ),
    )
    def test_dilation(self, grid, data, radius):
        cell = st.tuples(st.integers(0, grid.width - 1), st.integers(0, grid.height - 1))
        path = data.draw(st.lists(cell, min_size=1, max_size=6))
        mask = dilate_path_to_region(grid, path, radius)
        assert np.array_equal(mask.values == 1.0, ref.dilate_path_to_region(grid, path, radius))
        assert set(np.unique(mask.values)) <= {0.0, 1.0}
        # built without the checked constructor: the same mask as one built with it
        assert mask == RegionMask(mask.values) and mask.values.dtype == np.float64
        assert (mask.width, mask.height) == (grid.width, grid.height)
        assert not mask.values.flags.writeable

    def test_search_on_many_small_maps(self):
        # equal-length routes whose float sums also tie are rare (about one
        # search in a hundred here), so this sweeps more maps than hypothesis
        # draws; a change of relaxation order shows in about 15 of them
        rng = np.random.default_rng(5)
        tally = collections.Counter()
        for _ in range(1500):
            w, h = rng.integers(2, 13, 2)
            cells = rng.random((h, w)) < 0.25
            if cells.all():
                continue
            g = GridMap(cells)
            free = g.free_cells()[rng.integers(0, len(g.free_cells()), 4)]
            start, *targets = [Point(x + 0.5, y + 0.5) for x, y in free]
            assert shortest_paths_from(g, start, targets) == ref.shortest_paths_from(
                g, start, targets, tally
            )
        assert tally["ties"] > 0  # pops where the orthogonal/diagonal tie rule decides

    def test_search_on_generated_maps(self):
        # all pairs of 10 goals on 20 generated 64x64 maps: the maps the
        # oracle labels, with the multi-target and the bounded single-pair
        # search. Letting the orthogonal head win equal keys changes 6 of
        # these 180 searches.
        spec = ObstacleSpec(density_range=(0.15, 0.30))
        tally = collections.Counter()
        for seed in range(20):
            g = generate_map(seed, 64, 64, spec)
            goals = list(place_goals(g, 10, seed=seed))
            for i, start in enumerate(goals[:-1]):
                targets = goals[i + 1 :]
                expected = ref.shortest_paths_from(g, start, targets, tally)
                assert shortest_paths_from(g, start, targets) == expected
                assert [grid_shortest_path(g, start, b) for b in targets] == expected
        assert tally["ties"] > 0


BOUND_FACTORS = [-1.0, 0.0, 0.5, 0.9, 1.0, 1.15, 1.5, 3.0, 1e300]


@st.composite
def bounded_searches(draw):
    """(map, start, targets, bound kind, factors) for one multi-target search:
    a map of reference_maps, one to four targets (repeats and the start
    allowed) and, per target, a factor of its path length (of the map's
    half-perimeter when it has none) for the bound kinds that take one."""
    grid = draw(reference_maps())
    cell = st.sampled_from([Point(x + 0.5, y + 0.5) for x, y in grid.free_cells().tolist()])
    start = draw(cell)
    targets = draw(st.lists(cell, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["none", "boxed", "full"]))
    factors = draw(st.lists(st.sampled_from(BOUND_FACTORS), min_size=len(targets), max_size=len(targets)))
    return grid, start, targets, kind, factors


def bound_list(grid, a, targets, kind, factors):
    """The starting dist list of a search: all inf ("none"), _bounded_dist's
    boxed list ("boxed"), or the max over the ends of lim - octile(n, b) on
    every padded cell ("full")."""
    w, h = grid.width, grid.height
    if kind == "none":
        return [math.inf] * ((w + 2) * (h + 2))
    ends = []
    for b, found, factor in zip(targets, ref.shortest_paths_from(grid, a, targets), factors):
        ends.append((b, estimators._limit(factor * (w + h if found is None else found[1]))))
    if kind == "boxed":
        return estimators._bounded_dist(grid, a, ends)
    fulls = []
    for b, lim in ends:
        bx, by = b.cell()
        dx = np.abs(np.arange(-1, w + 1) - bx)
        dy = np.abs(np.arange(-1, h + 1) - by)[:, None]
        fulls.append(lim - ((SQRT2 - 1.0) * np.minimum(dx, dy) + np.maximum(dx, dy)))
    return np.maximum.reduce(fulls).ravel().tolist()


def corridor(width, height, turn):
    """A corridor three cells wide along the top rows, turning down the
    right-hand columns when turn is set: inside it, a cell reached on a
    diagonal has both side diagonals legal."""
    cells = np.ones((height, width), dtype=bool)
    cells[:3] = False
    if turn:
        cells[:, -3:] = False
    return GridMap(cells)


class TestArrivalPruning:
    """shortest_paths_from checks only the moves a settled cell's arrival
    leaves open; the two-queue search of tests/oracle_reference.py checks
    every legal move, as the package's search did before."""

    @settings(max_examples=300, deadline=None)
    @given(bounded_searches())
    @example((corridor(9, 3, False), Point(0.5, 0.5), [Point(8.5, 2.5), Point(4.5, 0.5)], "none", [1.0, 1.0]))
    @example((corridor(9, 3, False), Point(0.5, 2.5), [Point(8.5, 0.5)], "boxed", [1.0]))
    @example((corridor(8, 8, True), Point(0.5, 1.5), [Point(6.5, 7.5), Point(3.5, 2.5)], "boxed", [1.15, 0.9]))
    @example((corridor(8, 8, True), Point(0.5, 0.5), [Point(7.5, 7.5)], "full", [1.0]))
    def test_equals_the_search_that_checks_every_move(self, search):
        # the same paths and lengths, and the same final dist list: the same
        # pushes were kept, bounded or not
        grid, a, targets, kind, factors = search
        dist = bound_list(grid, a, targets, kind, factors)
        want_dist = list(dist)
        want = ref.two_queue_shortest_paths_from(grid, a, targets, want_dist)
        assert shortest_paths_from(grid, a, targets, dist) == want
        assert dist == want_dist

    @pytest.mark.parametrize("pw", [4, 5, 66])
    def test_each_arrival_drops_the_checks_that_fail(self, pw):
        # an arrival u keeps only the moves with no component against it, and
        # an orthogonal u also drops each perpendicular v whose diagonal v - u
        # is legal; the start (arrival 0) checks every legal move
        table = estimators._move_table(pw)
        full = ref.move_table(pw)

        def offsets(moves, step):
            return tuple(dy * pw + dx for dx, dy, cost in NEIGHBORS_8 if (dx, dy) in moves and cost == step)

        assert sum(rows is not None for rows in table) == 9
        for code in range(256):
            legal = {(dx, dy) for k, (dx, dy, _) in enumerate(NEIGHBORS_8) if code >> k & 1}
            assert table[0][code] == full[code]
            for ux, uy, _ in NEIGHBORS_8:
                if ux and uy:
                    kept = {(ux, 0), (0, uy), (ux, uy)}
                else:
                    vs = [(uy, ux), (-uy, -ux)]
                    kept = {(ux, uy)} | {(ux + vx, uy + vy) for vx, vy in vs}
                    kept |= {(vx, vy) for vx, vy in vs if (vx - ux, vy - uy) not in legal}
                kept &= legal
                assert table[uy * pw + ux][code] == (offsets(kept, 1.0), offsets(kept, SQRT2)), (code, ux, uy)


class TestWeightMatrix:
    def test_rejects_asymmetric(self):
        w = np.array([[0, 1.0], [2.0, 0]])
        with pytest.raises(InvalidArgument, match="weight matrix must be exactly symmetric"):
            WeightMatrix(w)

    def test_rejects_negative(self):
        w = np.array([[0, -1.0], [-1.0, 0]])
        with pytest.raises(InvalidArgument, match="off-diagonal weights must be strictly positive"):
            WeightMatrix(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[0.5, 1.0], [1.0, 0]])
        with pytest.raises(InvalidArgument, match="weight matrix diagonal must be exactly zero"):
            WeightMatrix(w)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.uniform(1, 9, (5, 5))
        w = WeightMatrix(np.triu(a, 1) + np.triu(a, 1).T)
        path = tmp_path / "w.csv"
        w.to_csv(path)
        assert WeightMatrix.from_csv(path) == w

    def test_csv_bad_entry(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1\nx,0\n")
        with pytest.raises(FormatError, match="row 2"):
            WeightMatrix.from_csv(path)


class TestExternalPredictions:
    def setup_exported(self, tmp_path):
        g = generate_map(31, 24, 24, None)
        goals = place_goals(g, 4, 8, 3)
        matrix = export_predictions(tmp_path, g, goals, GridOracleEstimator())
        return g, goals, matrix

    def test_round_trip(self, tmp_path):
        g, goals, matrix = self.setup_exported(tmp_path)
        _, masks = build_weight_matrix(g, goals, GridOracleEstimator())
        est = load_external_predictions(tmp_path)
        out = est.estimate_all(g, goals)
        for i in range(4):
            for j in range(i + 1, 4):
                pe = out[(i, j)]
                assert pe.distance == matrix[i, j]
                assert np.abs(pe.mask.values - masks[(i, j)].values).max() <= 1 / 255
        w2, _ = build_weight_matrix(g, goals, est)
        assert w2 == matrix

    def test_export_holds_one_mask_at_a_time(self, tmp_path):
        g = generate_map(5, 128, 128, None)
        goals = place_goals(g, 20, 3, 10)
        est = GridOracleEstimator()
        # a warm-up export builds the per-map and per-radius caches before the baseline
        export_predictions(tmp_path / "warm-up", g, GoalSet(goals[:2]), est)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            export_predictions(tmp_path / "out", g, goals, est)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # All 190 masks take 25 MB. Held one at a time, the peak is the
        # working lists of one 128x128 search (about 1.1 MB) and the 190
        # held paths (about 0.8 MB).
        assert peak < 16 * g.width * g.height * 8
        radius = default_dilation_radius(g)
        expect = tmp_path / "expect"
        expect.mkdir()
        for i in range(len(goals)):
            for j in range(i + 1, len(goals)):
                path, _ = grid_shortest_path(g, goals[i], goals[j])
                mask = dilate_path_to_region(g, path, radius)
                write_pgm(expect / estimators.pair_mask_filename(i, j), mask.to_u8())
                got = tmp_path / "out" / estimators.pair_mask_filename(i, j)
                assert got.read_bytes() == (expect / got.name).read_bytes()

    def test_missing_pair_file(self, tmp_path):
        self.setup_exported(tmp_path)
        (tmp_path / "pair_0_2.pgm").unlink()
        # distances.csv lists the pairs in order, so row 2 is (0, 2)
        missing = re.escape(f"distances.csv row 2: missing mask file for pair (0, 2): {tmp_path}")
        with pytest.raises(FormatError, match=missing):
            load_external_predictions(tmp_path)

    @pytest.mark.parametrize("rows, message", [
        ("0,1,nan\n", "row 1: bad entry '0,1,nan'"),
        ("0,1,3.5\n0,2,-1.0\n", "row 2: bad entry '0,2,-1.0'"),
        ("0,1,inf\n", "row 1: bad entry '0,1,inf'"),
        ("0,1,3.5\n\n2,2,1.0\n", "row 3: bad entry '2,2,1.0'"),
        ("-1,2,1.0\n", "row 1: bad entry '-1,2,1.0'"),
        # two distinct goals are never 0 apart: build_weight_matrix would refuse it
        ("0,1,3.5\n0,2,0.0\n", "row 2: bad entry '0,2,0.0'"),
        ("0,1,3.5\n1,0,3.5\n", r"row 2 repeats row 1: \(0, 1\)$"),
    ])
    def test_bad_distance_rows(self, tmp_path, rows, message):
        self.setup_exported(tmp_path)
        (tmp_path / "distances.csv").write_text(rows)
        with pytest.raises(FormatError, match=f"distances.csv {message}"):
            load_external_predictions(tmp_path)

    def test_unknown_pair_at_estimate(self, tmp_path):
        g, goals, *_ = self.setup_exported(tmp_path)
        est = load_external_predictions(tmp_path)
        more = place_goals(g, 10, 8, 0)  # predictions cover goals 0-3 only
        message = re.escape(f"{tmp_path / 'distances.csv'}: no stored prediction for pair (0, 4)")
        with pytest.raises(FormatError, match=message):
            est.estimate_all(g, more)

    def test_dimension_mismatch(self, tmp_path):
        g, goals, *_ = self.setup_exported(tmp_path)
        est = load_external_predictions(tmp_path)
        wrong = GridMap(np.zeros((10, 10), dtype=bool))
        message = re.escape(f"{tmp_path / 'pair_0_1.pgm'}: mask is 24x24, map is 10x10")
        with pytest.raises(InvalidArgument, match=message):
            est.estimate_all(wrong, GoalSet(goals[:2]))


class TestRegionMask:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RegionMask(np.array([[0.5, 1.2]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        values = np.full((4, 4), 0.5)
        values[2, 1] = bad
        with pytest.raises(InvalidArgument, match=re.escape("mask values must lie in [0, 1]")):
            RegionMask(values)

    def test_caller_values_are_copied(self):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        mask = RegionMask(values)
        values[0, 0] = 0.75
        assert mask.values[0, 0] == 0.0 and not mask.values.flags.writeable

    def test_u8_round_trip_is_close(self):
        rng = np.random.default_rng(4)
        values = rng.random((6, 6))
        m = RegionMask(values)
        back = RegionMask.from_u8(m.to_u8())
        assert np.abs(back.values - values).max() <= 0.5 / 255 + 1e-12

    def test_cells_at_least_is_cached_and_read_only(self):
        mask = RegionMask(np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.5]]))
        cells = mask.cells_at_least(0.5)
        assert cells.tolist() == [[1, 0], [2, 0], [1, 1], [2, 1]]
        assert mask.cells_at_least(0.5) is cells and not cells.flags.writeable
        assert mask.cells_at_least(0.8).tolist() == [[2, 0]]
        with pytest.raises(ValueError):
            cells[0, 0] = 9
