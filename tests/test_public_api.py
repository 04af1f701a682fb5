"""The names ``import multigoal`` offers: exactly what the README, the
acceptance suite and perfbench use. Anything else comes from its submodule."""

import argparse
import ast
import builtins
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import multigoal
from multigoal import (
    GoalSet, GridMap, LossWeights, PlannerConfig, Point, RegionMask, WeightMatrix, cli, errors,
    grid_shortest_path, nearest_neighbor,
)
from multigoal.bench import BenchmarkRecord
from multigoal.errors import InvalidArgument
from multigoal.pipeline import Solution
from multigoal.planner import PathPolyline

PUBLIC = {
    # README
    "GoalSet", "GridMap", "Point", "Tour", "benchmark", "verify_solution",
    # tests/test_acceptance.py and perfbench/
    "ALGORITHMS", "EuclideanEstimator", "GridOracleEstimator", "LossWeights", "NoPathFound",
    "ObstacleSpec", "PlacementFailed", "PlannerConfig", "RegionMask", "WeightMatrix",
    "bce_loss", "build_weight_matrix", "builtin_scenario", "default_dilation_radius",
    "dice_loss", "dilate_path_to_region", "generate_map", "grid_shortest_path", "held_karp",
    "local_search_improve", "mse_loss", "nearest_neighbor", "place_goals", "plan_leg_rrt",
    "save_goals", "save_map", "total_loss", "tour_cost",
}


def test_exports_exactly_the_used_names():
    public = {n for n in dir(multigoal) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(multigoal, n), types.ModuleType)}
    assert len(PUBLIC) == 34
    assert public - modules == PUBLIC
    assert all(getattr(multigoal, n).__name__ == f"multigoal.{n}" for n in modules)


def source_trees():
    """(file name, parsed module) of each .py file under src/multigoal."""
    src = os.path.dirname(multigoal.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read())


def write_opens():
    """(file, enclosing function, mode) of each open() call under src/multigoal
    whose mode writes; a mode that is not a string literal reads as "?"."""
    sites = set()
    for name, tree in source_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open"):
                    continue
                arg = call.args[1] if len(call.args) > 1 else next(
                    (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
                mode = arg.value if isinstance(arg, ast.Constant) else "?"
                if set(mode) & set("wax+?"):
                    sites.add((name, func.name, mode))
    return sites


def test_text_is_written_in_one_place():
    """grid.write_lines writes every text file, so the encoding and line ends of
    every output are decided there; only the two binary writers open files too."""
    assert write_opens() == {
        ("grid.py", "write_lines", "w"),
        ("grid.py", "save_map", "wb"),
        ("pgm.py", "write_pgm", "wb"),
    }


def test_only_the_harness_and_the_cli_read_the_clock():
    """A run's result holds no wall time, so two equal runs compare equal:
    bench times each run for its report, the CLI times what it prints."""
    importers = set()
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if any(m and m.split(".")[0] == "time" for m in modules):
                importers.add(name)
    assert importers == {"bench.py", "cli.py"}


def run_after_bare_import(code):
    """stdout of ``code`` run after ``import multigoal`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(multigoal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import multigoal as mg; " + code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_the_submodules():
    out = run_after_bare_import(
        "print(mg.pipeline.run_algorithm.__name__, mg.dataset.generate_dataset.__name__)"
    )
    assert out.split() == ["run_algorithm", "generate_dataset"]


@pytest.mark.parametrize("extra", ["", "import multigoal.cli; "], ids=["package", "cli"])
def test_import_loads_no_scipy(extra):
    """The package and its CLI load no ``scipy`` module. Importing
    ``scipy.ndimage`` was most of the package's start-up: ``import multigoal``
    took 0.69 s with it and 0.25 s without."""
    out = run_after_bare_import(
        extra + "import sys; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.split() == []


def test_runtime_needs_only_numpy():
    """scipy is a test dependency only: the tests use it as an independent reference."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    runtime = [re.match(r"[\w.-]+", r).group() for r in project["dependencies"]]
    test = [re.match(r"[\w.-]+", r).group() for r in project["optional-dependencies"]["test"]]
    assert runtime == ["numpy"]
    assert "scipy" in test


# Every value a user can set, by subcommand. A new option, config key or
# planner field shows up here as a diff, so each one is a deliberate choice.
_SEEDED = ["--config", "--seed"]
_PLANNER = _SEEDED + ["--step", "--max-samples", "--k", "--goal-tol", "--rewire-radius",
                      "--mask-threshold"]
SUBCOMMAND_OPTIONS = {
    "gen-map": _SEEDED + ["--width", "--height", "--count-min", "--count-max", "--size-min",
                          "--size-max", "--density-min", "--density-max", "--out", "--goals",
                          "--min-sep", "--goals-out"],
    "gen-dataset": _SEEDED + ["--n", "--out-dir", "--width", "--height", "--min-sep",
                              "--validate"],
    "estimate": ["--map", "--goals", "--estimator", "--dilation-radius", "--out-dir"],
    "tsp": ["--weights", "--out"],
    "plan": _PLANNER + ["--map", "--start", "--goal", "--mask", "--algorithm", "--out-path",
                        "--out-stats"],
    "pipeline": _PLANNER + ["--map", "--goals", "--estimator", "--algorithm", "--out-dir",
                            "--svg"],
    "bench": _PLANNER + ["--scenarios", "--algorithms", "--repeats", "--estimator", "--out-dir"],
    "score": ["--labels", "--predictions", "--alpha", "--out"],
    "render": ["--map", "--goals", "--mask", "--path", "--solution-dir", "--out"],
}


def test_settable_surface():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [a.option_strings[-1] for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 81
    assert sorted(cli._CONFIG_KEYS) == [
        "goal_tol", "k", "mask_threshold", "max_samples", "rewire_radius", "seed", "step",
    ]
    assert [f.name for f in dataclasses.fields(PlannerConfig)] == [
        "step_size", "max_samples", "k", "goal_tolerance", "rewire_radius", "mask_threshold",
        "seed",
    ]


# The parameter names of every exported callable and of the public methods of
# every exported class (without self/cls), and the fields of the two records a
# run returns. A new parameter, method or field shows up here as a diff, so
# each one is a deliberate choice. None marks an exception that keeps
# Exception's own constructor.
SIGNATURES = {
    "EuclideanEstimator": [], "EuclideanEstimator.estimate_all": ["grid", "goals"],
    "GoalSet": ["goals"], "GoalSet.validate_on": ["grid"],
    "GridMap": ["cells"], "GridMap.density": [], "GridMap.is_free": ["p"],
    "GridMap.segment_clear": ["a", "b"], "GridMap.free_cells": [],
    "GridMap.component_labels": [], "GridMap.largest_component_cells": [],
    "GridOracleEstimator": ["dilation_radius"],
    "GridOracleEstimator.estimate_all": ["grid", "goals"],
    "LossWeights": ["alpha"],
    "NoPathFound": None,
    "ObstacleSpec": ["count_range", "size_range", "density_range"],
    "PlacementFailed": None,
    "PlannerConfig": ["step_size", "max_samples", "k", "goal_tolerance", "rewire_radius",
                      "mask_threshold", "seed"],
    "PlannerConfig.for_map": ["grid", "seed", "overrides"],
    "Point": ["x", "y"], "Point.cell": [], "Point.distance_to": ["other"],
    "RegionMask": ["values"], "RegionMask.check_shape": ["grid"],
    "RegionMask.cells_at_least": ["threshold"], "RegionMask.to_u8": [],
    "RegionMask.from_u8": ["raster"],
    "Tour": ["order"], "Tour.edges": [],
    "WeightMatrix": ["w"], "WeightMatrix.to_csv": ["path"], "WeightMatrix.from_csv": ["path"],
    "bce_loss": ["y", "yhat"],
    "benchmark": ["scenarios", "algorithms", "repeats", "base_seed", "cfg_overrides",
                  "estimator"],
    "build_weight_matrix": ["grid", "goals", "est"],
    "builtin_scenario": ["name"],
    "default_dilation_radius": ["grid"],
    "dice_loss": ["y", "yhat"],
    "dilate_path_to_region": ["grid", "path", "radius"],
    "generate_map": ["seed", "width", "height", "spec"],
    "grid_shortest_path": ["grid", "a", "b"],
    "held_karp": ["w"],
    "local_search_improve": ["w", "t"],
    "mse_loss": ["c", "chat"],
    "nearest_neighbor": ["w", "start"],
    "place_goals": ["grid", "m", "seed", "min_separation"],
    "plan_leg_rrt": ["grid", "start", "goal", "mask", "cfg"],
    "save_goals": ["path", "goals"],
    "save_map": ["path", "grid"],
    "total_loss": ["losses", "weights"],
    "tour_cost": ["w", "t"],
    "verify_solution": ["grid", "goals", "solution", "cfg"],
}


def parameter_names(obj):
    if isinstance(obj, type) and issubclass(obj, Exception) and "__init__" not in vars(obj):
        return None
    return list(inspect.signature(obj).parameters)


def test_signatures():
    found = {}
    for name in sorted(PUBLIC):
        obj = getattr(multigoal, name)
        if not callable(obj):
            continue
        found[name] = parameter_names(obj)
        if not isinstance(obj, type):
            continue
        for attr, value in vars(obj).items():
            if attr.startswith("_"):
                continue
            value = getattr(value, "__func__", value)  # a classmethod's function
            if inspect.isfunction(value):
                found[f"{name}.{attr}"] = parameter_names(value)[1:]
            elif isinstance(value, property):
                found[f"{name}.{attr}"] = []
    assert found == SIGNATURES
    assert [f.name for f in dataclasses.fields(Solution)] == [
        "tour", "legs", "total_cost", "seed", "algorithm", "tsp_method", "samples_total",
    ]
    assert [f.name for f in dataclasses.fields(BenchmarkRecord)] == [
        "scenario", "algorithm", "repeat", "seed", "wall_time_s", "solution",
    ]


def test_error_vocabulary():
    """One exception class per decision a caller makes: fix the input
    (InvalidArgument, FormatError), retry with another seed or budget
    (GenerationFailed, PlacementFailed, NoPathFound) or change the goals
    (Unreachable)."""
    classes = {
        name: [base.__name__ for base in value.__bases__]
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {
        "MultigoalError": ["Exception"],
        "InvalidArgument": ["MultigoalError", "ValueError"],
        "FormatError": ["MultigoalError"],
        "GenerationFailed": ["MultigoalError"],
        "PlacementFailed": ["MultigoalError"],
        "Unreachable": ["MultigoalError"],
        "NoPathFound": ["MultigoalError"],
    }
    assert all("__init__" not in vars(getattr(errors, name)) for name in classes)


def test_no_builtin_exception_is_raised():
    """Every refusal is a MultigoalError: no raise under src/multigoal names a
    builtin exception such as ValueError."""
    raised = [
        (name, node.lineno, exc.id)
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        if isinstance(exc, ast.Name) and hasattr(builtins, exc.id)
    ]
    assert raised == []


def _blocked_start():
    cells = np.zeros((4, 4), dtype=bool)
    cells[1, 1] = True
    return grid_shortest_path(GridMap(cells), Point(1.5, 1.5), Point(3.5, 3.5))


@pytest.mark.parametrize("call, message", [
    (lambda: Point(math.nan, 0), "point coordinates must be finite"),
    (lambda: GoalSet([Point(1, 1)]), "need at least 2 goals, got 1"),
    (lambda: PlannerConfig(k=2), "k must lie in [0, 1]"),
    (lambda: PlannerConfig(max_samples=2.5), "max_samples must be an integer, got 2.5"),
    (lambda: PlannerConfig(max_samples=True), "max_samples must be an integer, got True"),
    (lambda: GridMap([[0, 1], [1]]), "cells must be a 2D table"),
    (lambda: PathPolyline([Point(1, 1)]), "polyline needs at least 2 points"),
    (lambda: LossWeights((1, 1)), "need 3 loss weights (BCE, Dice, MSE), got 2"),
    (lambda: RegionMask(np.full((4, 4), np.nan)), "mask values must lie in [0, 1]"),
    (lambda: RegionMask([[0, 1], [1]]), "mask values must be 2D"),
    (lambda: nearest_neighbor(WeightMatrix([[0, 1], [1, 0]]), 9),
     "start vertex 9 out of range for m=2"),
    # the oracle search refuses a blocked end as the planners do
    (_blocked_start, "start (1.5, 1.5) is not free"),
], ids=["Point", "GoalSet", "PlannerConfig", "PlannerConfig-float-max_samples",
        "PlannerConfig-bool-max_samples", "GridMap-ragged", "PathPolyline", "LossWeights",
        "RegionMask", "RegionMask-ragged", "nearest_neighbor", "grid_shortest_path"])
def test_a_bad_value_raises_invalid_argument(call, message):
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        call()
