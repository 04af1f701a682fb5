import math
import re
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigoal import GridMap, NoPathFound, PlannerConfig, Point, RegionMask, plan_leg_rrt
from multigoal import planner
from multigoal.cli import main
from multigoal.errors import InvalidArgument
from multigoal.grid import save_map
from multigoal.planner import (
    MAX_SAMPLES,
    PathPolyline,
    Tree,
    _draw,
    _region_cells,
    _rrt,
    _rrt_star,
    _steer,
    load_path,
    path_cost,
    plan_leg_rrt_star,
    save_path,
)
import planner_reference
from sampled_reference import segment_free


def empty_map(w=32, h=32):
    return GridMap(np.zeros((h, w), dtype=bool))


def free_mask(grid):
    return RegionMask((~grid.cells).astype(np.float64))


def same_component(grid, a, b):
    """True iff the oracle can reach b's cell from a's cell."""
    labels = grid.component_labels()
    (ax, ay), (bx, by) = a.cell(), b.cell()
    return labels[ay, ax] != 0 and labels[ay, ax] == labels[by, bx]


def validate_tree(tree: Tree, ordered_parents: bool):
    assert tree.parents[0] == -1 and tree.costs[0] == 0.0
    for i in range(1, tree.size):
        p = tree.parents[i]
        assert 0 <= p < tree.size and p != i
        if ordered_parents:
            assert p < i
        d = tree.points[i].distance_to(tree.points[p])
        assert abs(tree.costs[i] - (tree.costs[p] + d)) < 1e-9
    for i in range(tree.size):  # acyclic: every parent chain reaches the root
        seen = set()
        v = i
        while v != -1:
            assert v not in seen
            seen.add(v)
            v = tree.parents[v]


def hybrid_draws(mask, goal, cfg, rng, n, fallback_cells):
    """n (x, y) draws of the hybrid sampler, made as the guided RRT makes them."""
    cells = _region_cells(mask, cfg, fallback_cells)
    goal_xy = float(goal.x), float(goal.y)
    return [_draw(cells, goal_xy, cfg.k, rng) for _ in range(n)]


def cell_of(xy):
    return Point(*xy).cell()


class TestHybridSample:
    def cfg(self, k, threshold=0.5):
        return PlannerConfig(k=k, mask_threshold=threshold)

    def test_k1_always_goal(self):
        g = empty_map()
        goal = Point(5.0, 6.0)
        rng = np.random.default_rng(0)
        for p in hybrid_draws(free_mask(g), goal, self.cfg(1.0), rng, 200, g.free_cells()):
            assert p == (5.0, 6.0) and type(p[0]) is float

    def test_k0_never_goal_and_respects_threshold(self):
        values = np.zeros((8, 8))
        values[2, 3] = 1.0
        values[5, 6] = 0.7
        values[1, 1] = 0.2  # below threshold
        mask = RegionMask(values)
        goal = Point(0.25, 0.25)
        rng = np.random.default_rng(1)
        allowed = {(3, 2), (6, 5)}
        for p in hybrid_draws(mask, goal, self.cfg(0.0), rng, 500, empty_map(8, 8).free_cells()):
            assert p != (goal.x, goal.y)
            assert cell_of(p) in allowed

    def test_binomial_goal_rate(self):
        g = empty_map()
        goal = Point(3.0, 3.0)
        rng = np.random.default_rng(2)
        draws = hybrid_draws(free_mask(g), goal, self.cfg(0.1), rng, 10_000, g.free_cells())
        hits = sum(p == (goal.x, goal.y) for p in draws)
        assert 900 <= hits <= 1100  # 3 sigma of Binomial(1e4, 0.1)

    def test_empty_region_falls_back_to_free_cells(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[0, 0] = True
        g = GridMap(cells)
        mask = RegionMask(np.zeros((4, 4)))
        rng = np.random.default_rng(3)
        free = {tuple(c) for c in g.free_cells()}
        for p in hybrid_draws(mask, Point(1.5, 1.5), self.cfg(0.0), rng, 100, g.free_cells()):
            assert cell_of(p) in free

    def test_matches_plain_uniform_stream_on_all_ones_mask(self):
        # With an all-ones mask the heuristic sampler degenerates to uniform
        # over free cells: same rng, same draws, identical stream.
        cells = np.random.default_rng(5).random((16, 16)) < 0.2
        cells[0, 0] = False
        g = GridMap(cells)
        goal = Point(0.5, 0.5)
        cfg = self.cfg(0.1)

        rng1 = np.random.default_rng(99)
        ours = hybrid_draws(free_mask(g), goal, cfg, rng1, 500, g.free_cells())

        rng2 = np.random.default_rng(99)
        free = g.free_cells()
        reference = []
        for _ in range(500):
            if rng2.random() > cfg.k:
                x, y = free[int(rng2.integers(len(free)))]
                reference.append((float(x) + rng2.random(), float(y) + rng2.random()))
            else:
                reference.append((goal.x, goal.y))
        assert ours == reference


class TestNearestAndSteer:
    def test_single_node(self):
        t = Tree(Point(1, 1), 4)
        assert t.nearest(9.0, 9.0) == 0

    def test_picks_closest(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(10.0, 0.0), 0, 10.0)
        assert t.nearest(1.0, 0.0) == 0
        assert t.nearest(9.0, 0.0) == 1

    def test_tie_goes_to_lower_index(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(2.0, 0.0), 0, 2.0)
        assert t.nearest(1.0, 0.0) == 0

    def test_near_is_inclusive_and_ascending(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(3.0, 4.0), 0, 5.0)
        t.add(Point(1.0, 0.0), 0, 1.0)
        assert t.near(0.0, 0.0, 5.0).tolist() == [0, 1, 2]
        assert t.near(0.0, 0.0, 4.9).tolist() == [0, 2]

    def test_near_after_nearest_and_add_sees_the_new_node(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(5.0, 0.0), 0, 5.0)
        assert t.nearest(1.0, 1.0) == 0
        t.add(Point(1.0, 1.0), 0, math.sqrt(2.0))
        assert t.near(1.0, 1.0, 2.0).tolist() == [0, 2]

    def test_near_at_another_point_is_computed_afresh(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(5.0, 0.0), 0, 5.0)
        t.add(Point(1.0, 1.0), 0, math.sqrt(2.0))
        assert t.nearest(1.0, 1.0) == 2
        # nearest's distances from (1, 1) would give [0, 2]
        assert t.near(4.0, 0.0, 3.5).tolist() == [1, 2]
        assert t.near(1.0, 1.0, 3.5).tolist() == [0, 2]

    def test_steer_short(self):
        assert _steer(0.0, 0.0, 0.0, 0.5, 1.0) == (0.0, 0.5, 0.5)

    def test_steer_clamps(self):
        assert _steer(0.0, 0.0, 10.0, 0.0, 1.0) == (1.0, 0.0, 1.0)

    def test_steer_3_4_5_direction(self):
        x, y, d = _steer(0.0, 0.0, 3.0, 4.0, 2.5)
        assert x == pytest.approx(1.5, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert d == pytest.approx(2.5, abs=1e-12)


# a few exact values, so that nodes repeat and targets land on nodes, and any float
coordinates = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 4.0))
xys = st.tuples(coordinates, coordinates)


@st.composite
def queued_runs(draw):
    """A root, and steps against its tree: add a node, queue a list of
    targets (some on the tree's nodes, possibly none), ask about the next
    queued target, or ask about another point."""
    pool = draw(st.lists(xys, min_size=1, max_size=12))
    targets = st.lists(st.one_of(xys, st.sampled_from(pool)), max_size=8)
    step = st.one_of(
        st.tuples(st.just("add"), st.one_of(xys, st.sampled_from(pool))),
        st.tuples(st.just("queue"), targets),
        st.tuples(st.just("ask"), st.none()),
        st.tuples(st.just("other"), xys),
    )
    return pool[0], draw(st.lists(step, max_size=40))


class TestQueuedNearest:
    """A queued nearest call answers what a fresh pass over every node would."""

    @settings(max_examples=200, deadline=None)
    @given(queued_runs())
    def test_equals_a_fresh_pass(self, run):
        root, steps = run
        tree = Tree(Point(*root), 64)
        queued, asked = [], 0
        for kind, arg in steps:
            if kind == "add":
                tree.add(Point(*arg), 0, 0.0)
            elif kind == "queue":
                tree.queue(arg)
                queued, asked = arg, 0
            else:
                if kind == "ask":
                    if asked == len(queued):
                        continue
                    x, y = queued[asked]
                    asked += 1
                else:
                    x, y = arg
                assert tree.nearest(x, y) == int(tree._dist2(x, y).argmin())

    def test_ties_and_a_kept_queue(self):
        t = Tree(Point(0, 0), 8)
        t.add(Point(2.0, 0.0), 0, 2.0)
        t.queue([(1.0, 0.0), (1.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        assert t.nearest(1.0, 0.0) == 0  # a tie in the block pass
        t.add(Point(1.0, 0.0), 0, 1.0)
        assert t.nearest(1.0, 0.0) == 2  # a node added since the pass
        t.add(Point(3.0, 0.0), 0, 3.0)
        t.add(Point(3.0, 0.0), 0, 3.0)
        assert t.nearest(3.0, 0.0) == 3  # a tie among the nodes added since
        assert t.nearest(0.5, 0.0) == 0  # not the head: answered fresh
        t._dist2 = None  # the queue is kept, so the head call below runs no fresh pass
        assert t.nearest(4.0, 0.0) == 3

    def test_an_empty_queue(self):
        t = Tree(Point(0, 0), 4)
        t.queue([])
        assert t.nearest(9.0, 9.0) == 0

    def test_a_goal_draw_steers_from_the_first_of_tied_nodes(self, monkeypatch):
        # nodes 1 and 2 lie equally close to the goal, both closer than the root
        g = empty_map(20, 20)
        cfg = PlannerConfig(step_size=3, goal_tolerance=0.5, max_samples=3)
        draws = iter([(8.0, 4.0), (12.0, 4.0), (10.0, 12.0)])
        monkeypatch.setattr(planner, "_draw", lambda cells, goal_xy, k, rng: next(draws))
        parents, add = [], Tree.add

        def recording_add(tree, p, parent, cost):
            parents.append(parent)
            return add(tree, p, parent, cost)

        monkeypatch.setattr(Tree, "add", recording_add)
        with pytest.raises(NoPathFound):
            plan_leg_rrt(g, Point(10, 2), Point(10, 12), free_mask(g), cfg)
        assert parents == [0, 0, 1]


class TestPathCost:
    def test_two_point(self):
        assert path_cost([Point(0, 0), Point(3, 4)]) == 5.0

    def test_elbow(self):
        assert path_cost([Point(0, 0), Point(1, 0), Point(1, 1)]) == 2.0

    def test_closed_square(self):
        square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(0, 0)]
        assert path_cost(square) == 40.0

    def test_length_field_matches(self):
        poly = PathPolyline([Point(0.3, 0.7), Point(4.2, 1.1), Point(2.0, 8.5)])
        assert poly.length == path_cost(poly.points)

    def test_csv_round_trip(self, tmp_path):
        poly = PathPolyline([Point(0.123, 4.5), Point(2.25, 8.0625), Point(30.5, 30.5)])
        save_path(tmp_path / "p.csv", poly)
        assert load_path(tmp_path / "p.csv") == poly


class TestPlanLegRrt:
    def test_empty_map_lower_bound(self):
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=1, seed=7)
        poly, used = plan_leg_rrt(g, Point(2, 2), Point(30, 30), free_mask(g), cfg)
        assert poly.length >= Point(2, 2).distance_to(Point(30, 30)) - 1e-9
        assert poly.points[0] == Point(2, 2)
        assert poly.points[-1] == Point(30, 30)
        assert used <= cfg.max_samples

    def test_wall_blocks(self):
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        cfg = PlannerConfig(step_size=1, goal_tolerance=1, max_samples=2000, seed=1)
        with pytest.raises(NoPathFound):
            plan_leg_rrt(g, Point(2, 8), Point(14, 8), free_mask(g), cfg)

    def test_determinism(self):
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=1, seed=123)
        a = plan_leg_rrt(g, Point(2, 2), Point(28, 25), free_mask(g), cfg)
        b = plan_leg_rrt(g, Point(2, 2), Point(28, 25), free_mask(g), cfg)
        assert a[0].points == b[0].points and a[1] == b[1]

    def test_trivial_connection_uses_no_samples(self):
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=3, seed=0)
        poly, used = plan_leg_rrt(g, Point(5, 5), Point(6, 6), free_mask(g), cfg)
        assert used == 0
        assert poly.points == (Point(5, 5), Point(6, 6))

    def test_paths_pass_stricter_recheck(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            cells = rng.random((24, 24)) < 0.2
            cells[2, 2] = False
            cells[21, 21] = False
            g = GridMap(cells)
            start, goal = Point(2.5, 2.5), Point(21.5, 21.5)
            if not same_component(g, start, goal):
                continue
            cfg = PlannerConfig(step_size=1.5, goal_tolerance=1.5, seed=trial)
            try:
                poly, _ = plan_leg_rrt(g, start, goal, free_mask(g), cfg)
            except NoPathFound:
                continue
            assert all(segment_free(g, a, b, 0.125) for a, b in zip(poly.points, poly.points[1:]))

    def test_tree_parents_precede_children(self):
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=1, seed=5)
        _, _, tree = _rrt(g, Point(2, 2), Point(29, 29), free_mask(g), cfg)
        validate_tree(tree, ordered_parents=True)

    def test_rejects_blocked_endpoints(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[4, 4] = True
        g = GridMap(cells)
        with pytest.raises(ValueError):
            plan_leg_rrt(g, Point(4.5, 4.5), Point(1.5, 1.5), free_mask(g), PlannerConfig())

    def test_rejects_a_blocked_goal(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[4, 4] = True
        g = GridMap(cells)
        with pytest.raises(InvalidArgument, match=re.escape("goal (4.5, 4.5) is not free")):
            plan_leg_rrt(g, Point(1.5, 1.5), Point(4.5, 4.5), free_mask(g), PlannerConfig())

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_config_rejects_nonpositive_rewire_radius(self, radius):
        with pytest.raises(ValueError, match="rewire_radius"):
            PlannerConfig(rewire_radius=radius)


class TestPlanLegRrtStar:
    def test_near_straight_on_empty_map(self):
        g = empty_map(64, 64)
        start, goal = Point(2, 2), Point(60, 60)
        ratios = []
        for seed in range(20):
            cfg = PlannerConfig(
                step_size=2, goal_tolerance=2, rewire_radius=6, max_samples=2000, seed=seed
            )
            poly, used = plan_leg_rrt_star(g, start, goal, cfg)
            assert used == cfg.max_samples
            ratios.append(poly.length / start.distance_to(goal))
        assert statistics.median(ratios) <= 1.05

    def test_final_no_worse_than_first(self):
        g = empty_map(48, 48)
        for seed in range(5):
            cfg = PlannerConfig(
                step_size=2, goal_tolerance=2, rewire_radius=6, max_samples=1500, seed=seed
            )
            poly, _, first_len, _ = _rrt_star(g, Point(2, 2), Point(45, 40), cfg)
            assert poly.length <= first_len + 1e-9

    def test_tree_invariants_after_rewiring(self):
        rng = np.random.default_rng(13)
        cells = rng.random((32, 32)) < 0.15
        cells[2, 2] = False
        cells[29, 29] = False
        g = GridMap(cells)
        cfg = PlannerConfig(step_size=1.5, goal_tolerance=1.5, rewire_radius=5, max_samples=800, seed=3)
        try:
            _, _, _, tree = _rrt_star(g, Point(2.5, 2.5), Point(29.5, 29.5), cfg)
        except NoPathFound:
            pytest.skip("seeded instance unsolved; invariants exercised elsewhere")
        validate_tree(tree, ordered_parents=False)

    def test_determinism(self):
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=2, rewire_radius=6, max_samples=600, seed=21)
        a = plan_leg_rrt_star(g, Point(2, 2), Point(29, 28), cfg)
        b = plan_leg_rrt_star(g, Point(2, 2), Point(29, 28), cfg)
        assert a[0].points == b[0].points and a[1] == b[1]

    def test_unreachable_goal(self):
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        cfg = PlannerConfig(step_size=1, goal_tolerance=1, max_samples=500, seed=1)
        with pytest.raises(NoPathFound):
            plan_leg_rrt_star(g, Point(2, 8), Point(14, 8), cfg)

    def test_trivial_connection_is_the_first_candidate(self):
        # the start in sight and within tolerance of the goal connects before
        # any sample, and the full budget still runs
        g = empty_map()
        cfg = PlannerConfig(step_size=2, goal_tolerance=3, rewire_radius=6, max_samples=200, seed=0)
        start, goal = Point(5, 5), Point(6, 6)
        poly, used, first_length, _tree = _rrt_star(g, start, goal, cfg)
        assert first_length == start.distance_to(goal)
        assert poly.length <= first_length
        assert used == cfg.max_samples


class TestGoldenPaths:
    """Exact outputs of both planners on one fixed instance, pinned so that a
    speed-up of the inner loops cannot move a single bit of a path."""

    def world(self):
        cells = np.zeros((20, 20), dtype=bool)
        cells[3:16, 9:11] = True
        cfg = PlannerConfig(
            step_size=2, goal_tolerance=1.5, rewire_radius=5, max_samples=300, seed=42
        )
        return GridMap(cells), cfg

    def test_rrt_star(self):
        g, cfg = self.world()
        poly, samples = plan_leg_rrt_star(g, Point(2, 2), Point(17, 4), cfg)
        assert samples == 300
        assert [repr(p) for p in poly.points] == [
            "Point(x=2.0, y=2.0)",
            "Point(x=5.846478536067957, y=2.1794920723460876)",
            "Point(x=10.764803552607233, y=2.8767107972646193)",
            "Point(x=12.595713774685727, y=3.2312805396868525)",
            "Point(x=17.0, y=4.0)",
        ]

    def test_rrt(self):
        g, cfg = self.world()
        poly, samples = plan_leg_rrt(g, Point(2, 2), Point(17, 4), free_mask(g), cfg)
        assert samples == 83
        assert [repr(p) for p in poly.points] == [
            "Point(x=2.0, y=2.0)",
            "Point(x=2.474787270503369, y=3.942827076136206)",
            "Point(x=4.47477177767334, y=3.9506992473798666)",
            "Point(x=6.335832235314358, y=4.683129430404162)",
            "Point(x=8.211860397544946, y=3.9899351325931365)",
            "Point(x=9.30094869178094, y=2.4885840453515335)",
            "Point(x=11.26348959906986, y=2.8738543234908924)",
            "Point(x=13.226030506358782, y=3.2591246016302513)",
            "Point(x=14.906586211372284, y=2.1748125974789674)",
            "Point(x=16.414074600009293, y=3.4891484594733804)",
            "Point(x=17.0, y=4.0)",
        ]

    def test_tree_points_are_float(self):
        # int start and goal: a goal draw that reaches the tree must still be
        # stored as floats, or save_path would write 17 for 17.0
        g, cfg = self.world()
        start, goal = Point(2, 2), Point(17, 4)
        trees = (_rrt(g, start, goal, free_mask(g), cfg)[2], _rrt_star(g, start, goal, cfg)[3])
        for tree in trees:
            for p in tree.points:
                assert type(p.x) is float and type(p.y) is float
        assert repr(trees[0].points[0]) == "Point(x=2.0, y=2.0)"

    def test_leg_ends_are_float(self):
        # a trivially connected leg holds only the caller's start and goal
        g, cfg = self.world()
        poly, samples = plan_leg_rrt(g, Point(2, 2), Point(3, 2), free_mask(g), cfg)
        assert samples == 0
        assert [repr(p) for p in poly.points] == ["Point(x=2.0, y=2.0)", "Point(x=3.0, y=2.0)"]

    def test_call_counts(self, monkeypatch):
        """Calls to the methods perfbench wraps for its per-layer counters.

        The loops must keep making these calls, one per query, so that a
        faster loop cannot silently zero a counter.
        """
        counts = {}

        def counting(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(GridMap, "segment_clear")
        # _dist2 is not wrapped by perfbench: its count pins near's reuse of
        # nearest's distances for every sample that the step did not move
        for name in ("nearest", "near", "add", "_dist2"):
            counting(Tree, name)
        g, cfg = self.world()
        plan_leg_rrt_star(g, Point(2, 2), Point(17, 4), cfg)
        # 300 samples less the 18 goal draws made once a node sat on the goal
        # (test_goal_draws_onto_the_goal_make_no_query derives the 18)
        assert counts == {
            "nearest": 282, "near": 264, "add": 261, "segment_clear": 583, "_dist2": 327
        }
        counts.clear()
        plan_leg_rrt(g, Point(2, 2), Point(17, 4), free_mask(g), cfg)
        # one nearest call per sample, and no _dist2 call: every draw is queued
        # (test_rrt_asks_nearest_about_every_draw_in_order derives the 83)
        assert counts == {"nearest": 83, "add": 62, "segment_clear": 84}

    def test_rrt_asks_nearest_about_every_draw_in_order(self, monkeypatch):
        g, cfg = self.world()
        goal = Point(17, 4)
        asked = []
        nearest = Tree.nearest
        monkeypatch.setattr(Tree, "nearest", lambda tree, x, y: asked.append((x, y)) or nearest(tree, x, y))
        _poly, samples = plan_leg_rrt(g, Point(2, 2), goal, free_mask(g), cfg)
        # the leg's _draw stream, replayed from its seed up to its last sample
        rng = np.random.default_rng(cfg.seed)
        replayed = hybrid_draws(free_mask(g), goal, cfg, rng, samples, g.free_cells())
        assert samples == 83 and replayed.count((17.0, 4.0)) == 8
        assert asked == replayed

    def goal_draw_run(self, monkeypatch, start, goal):
        """Run RRT* on the world from start to goal, and return its draws in
        order, how many had been made when the first node landed exactly on
        the goal (None if none did), and the points nearest was asked about."""
        g, cfg = self.world()
        draws, asked, reached = [], [], []
        draw, add, nearest = planner._draw, Tree.add, Tree.nearest

        def recording_draw(*args):
            draws.append(draw(*args))
            return draws[-1]

        def recording_add(tree, p, parent, cost):
            if (p.x, p.y) == (goal.x, goal.y) and not reached:
                reached.append(len(draws))
            return add(tree, p, parent, cost)

        def recording_nearest(tree, x, y):
            asked.append((x, y))
            return nearest(tree, x, y)

        monkeypatch.setattr(planner, "_draw", recording_draw)
        monkeypatch.setattr(Tree, "add", recording_add)
        monkeypatch.setattr(Tree, "nearest", recording_nearest)
        _rrt_star(g, start, goal, cfg)
        assert len(draws) == cfg.max_samples
        return draws, (reached or [None])[0], asked

    def test_goal_draws_onto_the_goal_make_no_query(self, monkeypatch):
        goal = Point(17, 4)
        draws, reached, asked = self.goal_draw_run(monkeypatch, Point(2, 2), goal)
        # the leg's _draw stream, replayed from its seed: which draws were the goal
        g, cfg = self.world()
        rng = np.random.default_rng(cfg.seed)
        replayed = [_draw(g.free_cells(), (17.0, 4.0), cfg.k, rng) for _ in range(cfg.max_samples)]
        assert replayed == draws
        goal_draws = [i for i, xy in enumerate(replayed) if xy == (17.0, 4.0)]
        skipped = [i for i in goal_draws if i >= reached]
        assert reached is not None and len(skipped) == 18 and len(goal_draws) > 18
        # every other draw, the goal draws before the goal was reached among them, asks nearest
        assert asked == [xy for i, xy in enumerate(replayed) if i not in skipped]

    def test_a_leg_from_the_goal_to_itself_is_refused(self, monkeypatch, tmp_path, capsys):
        g, cfg = self.world()
        draws = []
        draw = planner._draw
        monkeypatch.setattr(planner, "_draw", lambda *args: draws.append(args) or draw(*args))
        for plan in (
            lambda a, b: plan_leg_rrt_star(g, a, b, cfg),
            lambda a, b: plan_leg_rrt(g, a, b, free_mask(g), cfg),
        ):
            for a, b in ((Point(17, 4), Point(17, 4)), (Point(17.0, 4.0), Point(17, 4))):
                with pytest.raises(InvalidArgument, match=re.escape(f"its goal ({b.x}, {b.y})")):
                    plan(a, b)
        # the CLI refuses the leg with its full default budget before a single draw
        save_map(tmp_path / "world.map", g)
        for algorithm in ("rrt-star", "rrt"):
            code = main(["plan", "--map", str(tmp_path / "world.map"), "--start", "17,4",
                         "--goal", "17,4", "--algorithm", algorithm,
                         "--out-path", str(tmp_path / "p.csv")])
            assert code == 1
            assert capsys.readouterr().err == "error: leg start equals its goal (17.0, 4.0)\n"
        assert draws == [] and not (tmp_path / "p.csv").exists()


@st.composite
def planner_instances(draw):
    """A small random map, int start and goal cells, a mask and a seed."""
    w = draw(st.integers(3, 20))
    h = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.15, 0.3]))
    free = np.argwhere(~cells)
    if len(free) < 2:
        cells[:] = False
        free = np.argwhere(~cells)
    a, b = rng.choice(len(free), 2, replace=False)
    start = Point(int(free[a][1]), int(free[a][0]))
    goal = Point(int(free[b][1]), int(free[b][0]))
    kind = draw(st.sampled_from(["random", "empty", "free"]))
    if kind == "random":
        mask = RegionMask(rng.random((h, w)))
    elif kind == "empty":  # no cell reaches the threshold: draws fall back to free cells
        mask = RegionMask(np.zeros((h, w)))
    else:
        mask = RegionMask((~cells).astype(np.float64))
    grid = GridMap(cells)
    # a tolerance below the step lets a goal draw itself join the tree
    cfg = PlannerConfig(
        step_size=draw(st.sampled_from([0.75, 1.5, 3.0])),
        goal_tolerance=draw(st.sampled_from([0.0, 0.5, 1.5, 3.0])),
        rewire_radius=draw(st.sampled_from([1.0, 4.5])),
        max_samples=draw(st.integers(1, 150)),
        k=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        mask_threshold=draw(st.sampled_from([0.3, 0.7])),
        seed=draw(st.integers(0, 2**31)),
    )
    return grid, start, goal, mask, cfg


def _outcome(plan, *args):
    """What a planner run leaves behind, with points compared by repr, and
    every segment it checked, in order (by value: the Point-based loop may
    check a segment to the caller's int goal where the float loop has a node)."""
    checked = []
    segment_clear = GridMap.segment_clear

    def recording(grid, a, b):
        checked.append((a.x, a.y, b.x, b.y))
        return segment_clear(grid, a, b)

    with mock.patch.object(GridMap, "segment_clear", recording):
        try:
            out = plan(*args)
        except NoPathFound as exc:
            return ("NoPathFound", str(exc), checked)
    poly, tree = out[0], out[-1]
    return (
        [repr(p) for p in poly.points],
        out[1:-1],  # samples, and RRT*'s first solution length
        [repr(p) for p in tree.points],
        tree.parents,
        tree.costs,
        checked,
    )


def assert_same_as_reference(grid, start, goal, mask, cfg):
    assert _outcome(_rrt, grid, start, goal, mask, cfg) == _outcome(
        planner_reference.rrt, grid, start, goal, mask, cfg
    )
    assert _outcome(_rrt_star, grid, start, goal, cfg) == _outcome(
        planner_reference.rrt_star, grid, start, goal, cfg
    )


class TestMatchesPointReference:
    """The float-pair loops return exactly what the Point-based loops return."""

    @settings(max_examples=60, deadline=None)
    @given(planner_instances())
    def test_property(self, instance):
        assert_same_as_reference(*instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_sweep(self, seed):
        rng = np.random.default_rng(seed)
        cells = rng.random((32, 32)) < 0.2
        cells[2, 2] = cells[29, 29] = False
        grid = GridMap(cells)
        values = rng.random((32, 32)) if seed % 2 else np.zeros((32, 32))
        cfg = PlannerConfig(
            step_size=1.5, goal_tolerance=0.5 + seed % 3 * 0.5, rewire_radius=4.5,
            max_samples=400, seed=seed,
        )
        assert_same_as_reference(grid, Point(2, 2), Point(29, 29), RegionMask(values), cfg)


class TestForMap:
    def test_an_unknown_override_is_refused_by_name(self):
        message = ("unknown planner setting 'kk', 'stepsize'; choose from step_size, "
                   "max_samples, k, goal_tolerance, rewire_radius, mask_threshold, seed")
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            PlannerConfig.for_map(empty_map(), stepsize=1, kk=2)


class TestSampleCap:
    def test_rejects_just_above_the_cap(self):
        # the check fires in the config, before any tree is allocated
        with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
            PlannerConfig(max_samples=MAX_SAMPLES + 1)

    def test_accepts_the_cap(self):
        assert PlannerConfig(max_samples=MAX_SAMPLES).max_samples == MAX_SAMPLES
