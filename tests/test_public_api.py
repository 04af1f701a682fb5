"""The names ``import multigoal`` offers: exactly what the README, the
acceptance suite and perfbench use. Anything else comes from its submodule."""

import os
import subprocess
import sys
import types

import multigoal

PUBLIC = {
    # README
    "GoalSet", "GridMap", "Point", "Tour", "benchmark", "verify_solution",
    # tests/test_acceptance.py and perfbench/
    "ALGORITHMS", "EuclideanEstimator", "GridOracleEstimator", "LossWeights", "NoPathFound",
    "ObstacleSpec", "PlacementFailed", "PlannerConfig", "RegionMask", "WeightMatrix",
    "bce_loss", "build_weight_matrix", "builtin_scenario", "comb_map",
    "default_dilation_radius", "dice_loss", "dilate_path_to_region", "generate_map",
    "grid_shortest_path", "held_karp", "local_search_improve", "mse_loss",
    "narrow_passage_instance", "nearest_neighbor", "place_goals", "plan_leg_rrt",
    "save_goals", "save_map", "total_loss", "tour_cost",
}


def test_exports_exactly_the_used_names():
    public = {n for n in dir(multigoal) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(multigoal, n), types.ModuleType)}
    assert len(PUBLIC) == 36
    assert public - modules == PUBLIC
    assert all(getattr(multigoal, n).__name__ == f"multigoal.{n}" for n in modules)


def test_bare_import_loads_the_submodules():
    src = os.path.dirname(os.path.dirname(multigoal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import multigoal as mg; "
        "print(mg.pipeline.run_algorithm.__name__, mg.dataset.generate_dataset.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["run_algorithm", "generate_dataset"]
