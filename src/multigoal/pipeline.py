"""End-to-end orchestration: estimate pair weights, order goals, plan legs.

Every algorithm runs one flow: weigh all goal pairs, solve the TSP on the
symmetric weight matrix, then plan each tour edge. The guided algorithm weighs
pairs with an estimator and plans legs with the region-guided RRT. The RRT*
baselines swap stages: per-pair RRT* paths as weights and legs, or
straight-line weights with RRT* legs planned only along the chosen order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument, NoPathFound
from .estimators import WeightMatrix, build_weight_matrix, make_estimator
from .grid import GoalSet, GridMap, check_seed
from .planner import PathPolyline, PlannerConfig, plan_leg_rrt, plan_leg_rrt_star
from .tsp import Tour, solve_tsp

GUIDED = "guided"
RRT_STAR = "rrt-star"
EUCLIDEAN_RRT_STAR = "euclidean-rrt-star"
ALGORITHMS = (GUIDED, RRT_STAR, EUCLIDEAN_RRT_STAR)

_CHAIN_TOL = 1e-9


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic 64-bit child seed from a master seed in [0, 2**64) and an index path."""
    state = np.random.SeedSequence([check_seed(master), *[int(p) for p in parts]]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


@dataclass(frozen=True)
class Solution:
    """A closed multi-goal path: visiting order plus one planned leg per tour edge."""

    tour: Tour
    legs: tuple[PathPolyline, ...]
    total_cost: float
    seed: int
    algorithm: str
    tsp_method: str
    samples_total: int

    def __post_init__(self):
        if len(self.legs) != self.tour.m:
            raise InvalidArgument(
                f"{self.tour.m}-goal tour needs {self.tour.m} legs, got {len(self.legs)}"
            )
        for k, leg in enumerate(self.legs):
            nxt = self.legs[(k + 1) % len(self.legs)]
            if leg.points[-1].distance_to(nxt.points[0]) > _CHAIN_TOL:
                raise InvalidArgument(f"leg {k} does not chain into leg {(k + 1) % len(self.legs)}")
        total = sum(leg.length for leg in self.legs)
        if abs(total - self.total_cost) > 1e-6:
            raise InvalidArgument(f"total_cost {self.total_cost} != sum of leg lengths {total}")


def check_algorithm(algorithm: str) -> None:
    """Raise InvalidArgument unless algorithm is one of ALGORITHMS."""
    if algorithm not in ALGORITHMS:
        raise InvalidArgument(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")


def run_algorithm(
    grid: GridMap,
    goals: GoalSet,
    algorithm: str,
    cfg: PlannerConfig,
    estimator: str = "oracle",
) -> Solution:
    """Weights, then the TSP, then one planned leg per tour edge.

    guided weighs pairs with the estimator that the make_estimator spec
    estimator names and plans region-guided RRT legs; euclidean-rrt-star
    weighs by straight-line distance and plans RRT* legs; rrt-star weighs every
    pair by a full RRT* plan and reuses those paths as legs. The spec is
    checked for every algorithm, although only guided uses it. A tour edge is
    planned at most once, so a two-goal tour plans one leg and drives it back
    in reverse.
    """
    check_algorithm(algorithm)
    # (i, j) with i < j -> a path from goal i to goal j
    paths: dict[tuple[int, int], PathPolyline] = {}
    samples_total = 0

    est = make_estimator(estimator)
    if algorithm == RRT_STAR:
        goals.validate_on(grid)
        m = len(goals)
        w = np.zeros((m, m), dtype=np.float64)
        for i in range(m):
            for j in range(i + 1, m):
                cfg_pair = replace(cfg, seed=derive_seed(cfg.seed, 2, i, j))
                poly, samples = _named_plan(
                    "pair", i, j, plan_leg_rrt_star, grid, goals[i], goals[j], cfg_pair
                )
                w[i, j] = w[j, i] = poly.length
                paths[(i, j)] = poly
                samples_total += samples
        matrix = WeightMatrix(w)
    else:
        if algorithm == EUCLIDEAN_RRT_STAR:
            est = make_estimator("euclidean")
        matrix, masks = build_weight_matrix(grid, goals, est)
    result = solve_tsp(matrix)

    legs = []
    for k, (i, j) in enumerate(result.tour.edges()):
        key = (min(i, j), max(i, j))
        if key in paths:
            leg = paths[key] if i < j else paths[key].reverse()
        else:
            if algorithm == GUIDED:
                cfg_leg = replace(cfg, seed=derive_seed(cfg.seed, 1, k))
                leg, samples = _named_plan(
                    "leg", i, j, plan_leg_rrt, grid, goals[i], goals[j], masks[key], cfg_leg
                )
            else:
                cfg_leg = replace(cfg, seed=derive_seed(cfg.seed, 3, k))
                leg, samples = _named_plan(
                    "leg", i, j, plan_leg_rrt_star, grid, goals[i], goals[j], cfg_leg
                )
            samples_total += samples
            paths[key] = leg if i < j else leg.reverse()
        legs.append(leg)

    return Solution(
        tour=result.tour,
        legs=tuple(legs),
        total_cost=sum(leg.length for leg in legs),
        seed=cfg.seed,
        algorithm=algorithm,
        tsp_method=result.method,
        samples_total=samples_total,
    )


def _named_plan(what, i, j, planner, *args):
    """planner(*args); a NoPathFound names the goal pair it failed on."""
    try:
        return planner(*args)
    except NoPathFound as exc:
        raise NoPathFound(f"{what} ({i}, {j}): {exc}") from exc


def verify_solution(grid: GridMap, goals: GoalSet, solution: Solution, cfg: PlannerConfig) -> None:
    """Independent integrity check of a finished solution.

    Verifies tour validity, leg-to-goal chaining within the goal tolerance,
    re-checks every segment with the exact GridMap.segment_clear, and
    confirms the cost bookkeeping. Raises InvalidArgument, still a ValueError,
    on the first violation.
    """
    order = solution.tour.order
    if sorted(order) != list(range(len(goals))):
        raise InvalidArgument(f"tour {order} does not visit every goal exactly once")
    m = len(order)
    for k, leg in enumerate(solution.legs):
        i, j = order[k % m], order[(k + 1) % m]
        if leg.points[0].distance_to(goals[i]) > cfg.goal_tolerance + _CHAIN_TOL:
            raise InvalidArgument(f"leg {k} starts {leg.points[0]} away from goal {i}")
        if leg.points[-1].distance_to(goals[j]) > cfg.goal_tolerance + _CHAIN_TOL:
            raise InvalidArgument(f"leg {k} ends away from goal {j}")
        for a, b in zip(leg.points, leg.points[1:]):
            if not grid.segment_clear(a, b):
                raise InvalidArgument(f"leg {k} segment {a}->{b} crosses a blocked cell")
    total = sum(leg.length for leg in solution.legs)
    if abs(total - solution.total_cost) > 1e-6:
        raise InvalidArgument("total_cost does not match the sum of leg lengths")
