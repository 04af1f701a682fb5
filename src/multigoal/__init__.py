"""Multi-goal path planning on 2D occupancy grids.

Pairwise distance/region estimation over all goal pairs builds a symmetric
weight matrix; a TSP solver picks the visiting order; a region-guided
hybrid-sampling RRT plans each leg. RRT* baselines, loss metrics, dataset
generation, benchmarking, and SVG rendering round out the toolkit.
"""

from .errors import (
    BlockedPoint,
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    GenerationFailed,
    InvalidMatrix,
    InvalidTour,
    LengthMismatch,
    MissingPrediction,
    MultigoalError,
    NoPathFound,
    OutOfBoundsError,
    PlacementFailed,
    ShapeMismatch,
    TooLarge,
    Unreachable,
)
from .grid import (
    GoalSet,
    GridMap,
    ObstacleSpec,
    Point,
    generate_map,
    load_goals,
    load_map,
    place_goals,
    save_goals,
    save_map,
)
from .estimators import (
    Estimator,
    EuclideanEstimator,
    ExternalEstimator,
    GridOracleEstimator,
    PairEstimate,
    RegionMask,
    WeightMatrix,
    build_weight_matrix,
    default_dilation_radius,
    dilate_path_to_region,
    export_predictions,
    grid_shortest_path,
    load_external_predictions,
    make_estimator,
)
from .losses import (
    LabelPair,
    LossWeights,
    bce_loss,
    dice_loss,
    mse_loss,
    score_predictions,
    total_loss,
)
from .tsp import (
    Tour,
    TspConfig,
    TspResult,
    held_karp,
    local_search_improve,
    nearest_neighbor,
    solve_tsp,
    tour_cost,
)
from .planner import (
    PathPolyline,
    PlannerConfig,
    Tree,
    hybrid_sample,
    load_path,
    path_cost,
    plan_leg_rrt,
    plan_leg_rrt_star,
    save_path,
    steer,
)
from .pipeline import (
    ALGORITHMS,
    EUCLIDEAN_RRT_STAR,
    GUIDED,
    RRT_STAR,
    Solution,
    derive_seed,
    run_algorithm,
    verify_solution,
)
from .bench import BenchmarkRecord, bench_seed, benchmark
from .dataset import generate_dataset, validate_dataset
from .render import render_svg
from .scenarios import (
    Scenario,
    builtin_scenario,
    comb_map,
    narrow_passage_instance,
    narrow_passage_map,
)

__version__ = "0.1.0"
