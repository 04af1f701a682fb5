"""Multi-goal path planning on 2D occupancy grids.

Pairwise distance/region estimation over all goal pairs builds a symmetric
weight matrix; a TSP solver picks the visiting order; a region-guided
hybrid-sampling RRT plans each leg. RRT* baselines, loss metrics, dataset
generation, benchmarking, and SVG rendering round out the toolkit.

The package re-exports the names its users reach for; everything else is
imported from its submodule (``multigoal.planner``, ``multigoal.errors``, ...).
"""

from . import dataset, render  # noqa: F401  (loaded so multigoal.dataset/.render resolve)
from .bench import benchmark
from .errors import NoPathFound, PlacementFailed
from .estimators import (
    EuclideanEstimator,
    GridOracleEstimator,
    RegionMask,
    WeightMatrix,
    build_weight_matrix,
    default_dilation_radius,
    dilate_path_to_region,
    grid_shortest_path,
)
from .grid import GoalSet, GridMap, ObstacleSpec, Point, generate_map, place_goals, save_goals, save_map
from .losses import LossWeights, bce_loss, dice_loss, mse_loss, total_loss
from .pipeline import ALGORITHMS, verify_solution
from .planner import PlannerConfig, plan_leg_rrt
from .scenarios import builtin_scenario
from .tsp import Tour, held_karp, local_search_improve, nearest_neighbor, tour_cost

__version__ = "0.1.0"
