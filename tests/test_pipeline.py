import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multigoal.pipeline
from multigoal import (
    ALGORITHMS,
    EuclideanEstimator,
    GoalSet,
    GridMap,
    GridOracleEstimator,
    NoPathFound,
    PlannerConfig,
    Point,
    RegionMask,
    build_weight_matrix,
    estimators,
    generate_map,
    held_karp,
    place_goals,
    plan_leg_rrt,
    tour_cost,
    verify_solution,
)
from multigoal.errors import InvalidArgument, Unreachable
from multigoal.estimators import PairEstimate, export_predictions
from multigoal.pgm import read_pgm, write_pgm
from multigoal.pipeline import EUCLIDEAN_RRT_STAR, GUIDED, RRT_STAR, derive_seed, run_algorithm
from multigoal.render import render_svg


def empty_map(w=48, h=48):
    return GridMap(np.zeros((h, w), dtype=bool))


def spread_goals():
    return GoalSet(
        [Point(4.5, 4.5), Point(43.5, 6.5), Point(40.5, 41.5), Point(6.5, 44.5), Point(24.5, 20.5)]
    )


def _recording(planner, samples):
    def plan(*args):
        poly, used = planner(*args)
        samples.append(used)
        return poly, used

    return plan


@contextlib.contextmanager
def recorded_plans():
    """The samples of each planner call run_algorithm makes, one entry per plan:
    the skeleton looks both planners up as globals of multigoal.pipeline."""
    samples = []
    with mock.patch.object(
        multigoal.pipeline, "plan_leg_rrt", _recording(multigoal.pipeline.plan_leg_rrt, samples)
    ), mock.patch.object(
        multigoal.pipeline,
        "plan_leg_rrt_star",
        _recording(multigoal.pipeline.plan_leg_rrt_star, samples),
    ):
        yield samples


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 3) == derive_seed(42, 1, 3)

    def test_distinct_indices_differ(self):
        seeds = {derive_seed(42, 1, k) for k in range(100)}
        assert len(seeds) == 100

    def test_64_bit_range(self):
        s = derive_seed(2**63, 7)
        assert 0 <= s < 2**64


def counted_dilations(monkeypatch):
    """The path of each dilate_path_to_region call the oracle makes, one entry per call."""
    paths = []
    dilate = estimators.dilate_path_to_region

    def counted(grid, path, radius):
        paths.append(path)
        return dilate(grid, path, radius)

    monkeypatch.setattr(estimators, "dilate_path_to_region", counted)
    return paths


class TestOracleDilatesOnlyTheTourMasks:
    def test_ten_goals_dilate_one_mask_per_tour_edge(self, monkeypatch):
        g = generate_map(21, 48, 48, None)
        goals = place_goals(g, 10, 22, 4)
        paths = counted_dilations(monkeypatch)
        sol = run_algorithm(g, goals, GUIDED, PlannerConfig.for_map(g, seed=3), estimator="oracle")
        edges = {frozenset((goals[i].cell(), goals[j].cell())) for i, j in sol.tour.edges()}
        dilated = [frozenset((path[0], path[-1])) for path in paths]
        assert len(paths) == len(edges) == 10
        assert set(dilated) == edges  # at most one dilation per pair


class TestRunPipeline:
    def test_m2_out_and_back(self, monkeypatch):
        g = empty_map()
        goals = GoalSet([Point(5.5, 5.5), Point(30.5, 30.5)])
        cfg = PlannerConfig.for_map(g, seed=3)
        dilated = counted_dilations(monkeypatch)
        with recorded_plans() as samples:
            sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        assert sol.tour.order == (0, 1)
        assert len(sol.legs) == 2
        assert len(samples) == 1 and len(dilated) == 1
        assert sol.legs[1].points == sol.legs[0].points[::-1]
        assert sol.total_cost >= 2 * goals[0].distance_to(goals[1]) - 1e-9
        verify_solution(g, goals, sol, cfg)

    def test_deterministic(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=11)
        a = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        b = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        assert a.tour.order == b.tour.order
        assert a.total_cost == b.total_cost
        assert [leg.points for leg in a.legs] == [leg.points for leg in b.legs]

    def test_oracle_tour_matches_euclidean_on_empty_map(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=5)
        sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        w_eu, _ = build_weight_matrix(g, goals, EuclideanEstimator())
        tour_eu, _ = held_karp(w_eu)
        assert sol.tour.order == tour_eu.order

    def test_total_cost_close_to_oracle_tour_cost(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=9)
        sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        from multigoal import GridOracleEstimator

        w_o, _ = build_weight_matrix(g, goals, GridOracleEstimator())
        oracle_cost = tour_cost(w_o, sol.tour)
        assert sol.total_cost >= 0.95 * oracle_cost

    def test_rerun_returns_an_equal_solution(self):
        """A Solution holds no wall time, so a rerun compares equal field by field."""
        g = empty_map()
        goals = spread_goals()
        for algorithm in ALGORITHMS:
            cfg = PlannerConfig.for_map(g, seed=1, max_samples=600)
            first, again = (run_algorithm(g, goals, algorithm, cfg) for _ in range(2))
            assert first == again, algorithm

    def test_unreachable_pair_aborts(self):
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        goals = GoalSet([Point(2.5, 2.5), Point(4.5, 12.5), Point(13.5, 4.5)])
        with pytest.raises(Unreachable, match=r"^goal pair \(0, 2\) is unreachable: "):
            run_algorithm(g, goals, GUIDED, PlannerConfig.for_map(g, seed=0), estimator="oracle")

    def test_leg_failure_identifies_pair(self):
        # euclidean weights ignore the wall, so the planner hits the budget
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        goals = GoalSet([Point(2.5, 2.5), Point(4.5, 12.5), Point(13.5, 4.5)])
        cfg = PlannerConfig.for_map(g, seed=0, max_samples=200)
        with pytest.raises(NoPathFound, match=r"^leg \(1, 2\): no path within 200 samples$"):
            run_algorithm(g, goals, GUIDED, cfg, estimator="euclidean")

    def test_a_region_with_a_gap_is_planned_again_over_all_free_cells(self, tmp_path):
        # a wall with its gap in the bottom rows; the oracle's region runs
        # through the gap, and the exported mask has the gap's end erased
        cells = np.zeros((24, 40), dtype=bool)
        cells[:19, 20] = True
        g = GridMap(cells)
        goals = GoalSet([Point(5.5, 2.5), Point(34.5, 2.5)])
        export_predictions(tmp_path, g, goals, GridOracleEstimator())
        mask_path = tmp_path / "pair_0_1.pgm"
        raster = read_pgm(mask_path)
        raster[12:, 12:29] = 0
        write_pgm(mask_path, raster)
        cfg = PlannerConfig.for_map(g, seed=0, max_samples=1000)

        # the region alone finds no path within the budget
        gapped = RegionMask.from_u8(raster)
        with pytest.raises(NoPathFound):
            plan_leg_rrt(g, goals[0], goals[1], gapped, replace(cfg, seed=derive_seed(0, 1, 0)))
        with recorded_plans() as samples:
            sol = run_algorithm(g, goals, GUIDED, cfg, estimator=f"external:{tmp_path}")
        verify_solution(g, goals, sol, cfg)
        everywhere = RegionMask((~cells).astype(np.float64))
        leg, used = plan_leg_rrt(g, goals[0], goals[1], everywhere, replace(cfg, seed=derive_seed(0, 4, 0)))
        assert sol.legs[0] == leg and samples == [used]  # the second try; the first raised
        assert sol.samples_total == cfg.max_samples + used

    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    def test_a_first_try_over_every_free_cell_is_not_repeated(self, threshold):
        # the euclidean mask covers every free cell; at a threshold above
        # its 0.5-valued cells none qualifies, and the sampler falls back to
        # every free cell
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        g = GridMap(cells)
        goals = GoalSet([Point(2.5, 2.5), Point(13.5, 4.5)])
        mask = RegionMask(np.where(cells, 0.0, 0.5))
        cfg = replace(PlannerConfig.for_map(g, seed=0, max_samples=200), mask_threshold=threshold)
        est = mock.Mock(estimate_all=lambda grid, goals: {(0, 1): PairEstimate(11.0, mask)})
        with mock.patch.object(multigoal.pipeline, "make_estimator", return_value=est), mock.patch.object(
            multigoal.pipeline, "plan_leg_rrt", wraps=multigoal.pipeline.plan_leg_rrt
        ) as plan:
            with pytest.raises(NoPathFound, match=r"^leg \(0, 1\): no path within 200 samples$"):
                run_algorithm(g, goals, GUIDED, cfg)
        assert plan.call_count == 1


class TestBaselines:
    def test_euclidean_rrt_star_plans_m_legs(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=2, max_samples=600)
        with recorded_plans() as samples:
            sol = run_algorithm(g, goals, EUCLIDEAN_RRT_STAR, cfg)
        assert len(samples) == len(goals)
        assert sol.algorithm == EUCLIDEAN_RRT_STAR
        verify_solution(g, goals, sol, cfg)

    def test_rrt_star_plans_all_pairs(self):
        g = empty_map()
        goals = spread_goals()
        m = len(goals)
        cfg = PlannerConfig.for_map(g, seed=2, max_samples=400)
        with recorded_plans() as samples:
            sol = run_algorithm(g, goals, RRT_STAR, cfg)
        assert len(samples) == m * (m - 1) // 2
        assert sol.samples_total == len(samples) * cfg.max_samples
        verify_solution(g, goals, sol, cfg)

    def test_all_algorithms_agree_on_empty_map(self):
        g = empty_map()
        goals = spread_goals()
        orders = set()
        for alg in (GUIDED, RRT_STAR, EUCLIDEAN_RRT_STAR):
            cfg = PlannerConfig.for_map(g, seed=4)
            sol = run_algorithm(g, goals, alg, cfg, estimator="oracle")
            orders.add(sol.tour.order)
        assert len(orders) == 1

    def test_m2_baselines(self):
        g = empty_map()
        goals = GoalSet([Point(5.5, 5.5), Point(30.5, 30.5)])
        for alg in (RRT_STAR, EUCLIDEAN_RRT_STAR):
            cfg = PlannerConfig.for_map(g, seed=6, max_samples=600)
            with recorded_plans() as samples:
                sol = run_algorithm(g, goals, alg, cfg)
            assert len(sol.legs) == 2
            assert len(samples) == 1
            verify_solution(g, goals, sol, cfg)

    def test_unknown_algorithm(self):
        g = empty_map()
        with pytest.raises(InvalidArgument, match=r"^unknown algorithm 'dijkstra'; choose from "):
            run_algorithm(g, spread_goals(), "dijkstra", PlannerConfig())


class TestSkeletonProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        map_seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 4),
        seed=st.integers(0, 1000),
    )
    def test_any_algorithm_fails_cleanly_or_verifies(self, algorithm, map_seed, m, seed):
        rng = np.random.default_rng(map_seed)
        g = GridMap(rng.random((14, 14)) < 0.15)
        free = np.argwhere(~g.cells)
        assume(len(free) >= m)
        cells = free[rng.choice(len(free), size=m, replace=False)]
        goals = GoalSet([Point(x + 0.5, y + 0.5) for y, x in cells])
        cfg = PlannerConfig(
            step_size=1.5, goal_tolerance=1.0, rewire_radius=3.0, max_samples=200, seed=seed
        )

        with recorded_plans() as samples:
            try:
                sol = run_algorithm(g, goals, algorithm, cfg, estimator="oracle")
            except (NoPathFound, Unreachable):
                return
        verify_solution(g, goals, sol, cfg)
        if algorithm == RRT_STAR:
            assert len(samples) == m * (m - 1) // 2
        else:
            assert len(samples) == (1 if m == 2 else m)
        assert sol.samples_total == sum(samples)


class TestVerifySolution:
    def test_detects_cost_tampering(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=8)
        sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        object.__setattr__(sol, "total_cost", sol.total_cost + 5.0)
        with pytest.raises(ValueError, match="total_cost"):
            verify_solution(g, goals, sol, cfg)

    def test_detects_wrong_tour(self):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=8)
        sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        small = GoalSet([goals[0], goals[1], goals[2]])
        with pytest.raises(ValueError):
            verify_solution(g, small, sol, cfg)


class TestRenderSvg:
    def test_map_only_dimensions(self, tmp_path):
        g = empty_map(10, 7)
        svg = render_svg(g)
        assert 'width="40"' in svg and 'height="28"' in svg

    def test_solution_polyline_count(self, tmp_path):
        g = empty_map()
        goals = spread_goals()
        cfg = PlannerConfig.for_map(g, seed=2)
        sol = run_algorithm(g, goals, GUIDED, cfg, estimator="oracle")
        svg = render_svg(g, goals, legs=sol.legs)
        assert svg.count("<polyline") == len(sol.legs)
        assert svg.count("<circle") == len(goals)

    def test_mask_overlay_presence(self):
        from multigoal import RegionMask

        g = GridMap(np.zeros((6, 6), dtype=bool))
        values = np.zeros((6, 6))
        values[2, 3] = 1.0
        with_mask = render_svg(g, masks=[RegionMask(values)])
        without = render_svg(g)
        assert "fill-opacity" in with_mask
        assert "fill-opacity" not in without

    def test_writes_file(self, tmp_path):
        g = empty_map(8, 8)
        out = tmp_path / "m.svg"
        svg = render_svg(g, out_path=out)
        assert out.read_text() == svg
