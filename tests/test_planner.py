import statistics

import numpy as np
import pytest

from multigoal import GridMap, NoPathFound, PlannerConfig, Point, RegionMask, plan_leg_rrt
from multigoal.planner import (
    PathPolyline,
    Tree,
    _hybrid_draw,
    _region_cells,
    _rrt,
    _rrt_star,
    load_path,
    path_cost,
    plan_leg_rrt_star,
    save_path,
    steer,
)
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
    """n draws of the hybrid sampler, made as the guided RRT makes them."""
    cells = _region_cells(mask, cfg, fallback_cells)
    return [_hybrid_draw(cells, goal, cfg, rng) for _ in range(n)]


class TestHybridSample:
    def cfg(self, k, threshold=0.5):
        return PlannerConfig(k=k, mask_threshold=threshold)

    def test_k1_always_goal(self):
        g = empty_map()
        goal = Point(5.0, 6.0)
        rng = np.random.default_rng(0)
        for p in hybrid_draws(free_mask(g), goal, self.cfg(1.0), rng, 200, g.free_cells()):
            assert p == goal

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
            assert p != goal
            assert p.cell() in allowed

    def test_binomial_goal_rate(self):
        g = empty_map()
        goal = Point(3.0, 3.0)
        rng = np.random.default_rng(2)
        draws = hybrid_draws(free_mask(g), goal, self.cfg(0.1), rng, 10_000, g.free_cells())
        hits = sum(p == goal for p in draws)
        assert 900 <= hits <= 1100  # 3 sigma of Binomial(1e4, 0.1)

    def test_empty_region_falls_back_to_free_cells(self):
        cells = np.zeros((4, 4), dtype=bool)
        cells[0, 0] = True
        g = GridMap(cells)
        mask = RegionMask(np.zeros((4, 4)))
        rng = np.random.default_rng(3)
        free = {tuple(c) for c in g.free_cells()}
        for p in hybrid_draws(mask, Point(1.5, 1.5), self.cfg(0.0), rng, 100, g.free_cells()):
            assert p.cell() in free

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
                reference.append(Point(float(x) + rng2.random(), float(y) + rng2.random()))
            else:
                reference.append(goal)
        assert ours == reference


class TestNearestAndSteer:
    def test_single_node(self):
        t = Tree(Point(1, 1), 4)
        assert t.nearest(Point(9, 9)) == 0

    def test_picks_closest(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(10, 0), 0, 10.0)
        assert t.nearest(Point(1, 0)) == 0
        assert t.nearest(Point(9, 0)) == 1

    def test_tie_goes_to_lower_index(self):
        t = Tree(Point(0, 0), 4)
        t.add(Point(2, 0), 0, 2.0)
        assert t.nearest(Point(1, 0)) == 0

    def test_steer_short(self):
        assert steer(Point(0, 0), Point(0, 0.5), 1.0) == Point(0, 0.5)

    def test_steer_clamps(self):
        assert steer(Point(0, 0), Point(10, 0), 1.0) == Point(1, 0)

    def test_steer_3_4_5_direction(self):
        p = steer(Point(0, 0), Point(3, 4), 2.5)
        assert p.x == pytest.approx(1.5, abs=1e-12)
        assert p.y == pytest.approx(2.0, abs=1e-12)


class TestPathCost:
    def test_two_point(self):
        assert path_cost(PathPolyline([Point(0, 0), Point(3, 4)])) == 5.0

    def test_elbow(self):
        assert path_cost(PathPolyline([Point(0, 0), Point(1, 0), Point(1, 1)])) == 2.0

    def test_closed_square(self):
        square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(0, 0)]
        assert path_cost(PathPolyline(square)) == 40.0

    def test_length_field_matches(self):
        poly = PathPolyline([Point(0.3, 0.7), Point(4.2, 1.1), Point(2.0, 8.5)])
        assert poly.length == path_cost(poly)

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
            "Point(x=17, y=4)",
        ]

    def test_tree_points_are_float(self):
        tree = Tree(Point(1, 1), 4)
        idx = tree.add(Point(2, 3), 0, 1.0)
        for p in (tree.points[0], tree.points[idx]):
            assert type(p.x) is float and type(p.y) is float
        assert repr(tree.points[0]) == "Point(x=1.0, y=1.0)"
