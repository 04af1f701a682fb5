"""Command-line interface: map/dataset generation, estimation, TSP, planning,
the full pipeline, benchmarking, prediction scoring, and SVG rendering.

Options may also come from a key=value config file (--config); explicit flags
win over config values, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import bench as bench_mod
from .errors import FormatError, InvalidArgument, MultigoalError
from .estimators import (
    RegionMask,
    WeightMatrix,
    export_predictions,
    load_external_predictions,
    make_estimator,
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
    read_json_entries,
    read_rows,
    save_goals,
    save_map,
    write_lines,
    write_rows,
)
from .dataset import generate_dataset, validate_dataset
from .losses import LossWeights, score_predictions
from .pgm import read_pgm
from .pipeline import ALGORITHMS, GUIDED, derive_seed, run_algorithm
from .planner import (
    PlannerConfig,
    load_path,
    plan_leg_rrt,
    plan_leg_rrt_star,
    save_path,
)
from .render import render_svg
from .scenarios import builtin_scenario
from .tsp import solve_tsp


_PLANNER_FLAGS = [
    # (flag dest, PlannerConfig attr, value parser, help)
    ("step", "step_size", float, "extension step, cells"),
    ("max_samples", "max_samples", int, None),
    ("k", "k", float, "goal-bias coefficient in [0,1]"),
    ("goal_tol", "goal_tolerance", float, None),
    ("rewire_radius", "rewire_radius", float, None),
    ("mask_threshold", "mask_threshold", float, None),
]
# every key some subcommand reads, so that one file can serve several subcommands
_CONFIG_KEYS = {"seed": int, **{f: cast for f, _, cast, _ in _PLANNER_FLAGS}}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MultigoalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multigoal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--config", help="key=value config file; flags override it")
    seeded.add_argument("--seed", type=int, default=None)
    planner = argparse.ArgumentParser(add_help=False, parents=[seeded])
    for flag, _, cast, help_text in _PLANNER_FLAGS:
        planner.add_argument("--" + flag.replace("_", "-"), type=cast, default=None, help=help_text)

    p = _sub(sub, "gen-map", "Generate a random obstacle map (optionally with goals).", [seeded])
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--count-min", type=int, default=0)
    p.add_argument("--count-max", type=int, default=64)
    p.add_argument("--size-min", type=int, default=2)
    p.add_argument("--size-max", type=int, default=10)
    p.add_argument("--density-min", type=float, default=0.0)
    p.add_argument("--density-max", type=float, default=0.35)
    p.add_argument("--out", required=True, help="map file (.map text or .pgm)")
    p.add_argument("--goals", type=int, help="also place this many goals")
    p.add_argument("--min-sep", type=float, default=0.0)
    p.add_argument("--goals-out", help="goals CSV (default: map path with .goals.csv)")
    p.set_defaults(func=_cmd_gen_map)

    p = _sub(sub, "gen-dataset", "Generate a labeled two-goal dataset with 6:2:2 splits.", [seeded])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--min-sep", type=float)
    p.add_argument("--validate", action="store_true", help="re-check every written sample")
    p.set_defaults(func=_cmd_gen_dataset)

    p = _sub(sub, "estimate", "Estimate all goal-pair weights and region masks.", [])
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", required=True, dest="goals_path")
    p.add_argument("--estimator", default="oracle", help="euclidean | oracle | external:<dir>")
    p.add_argument("--dilation-radius", type=float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = _sub(sub, "tsp", "Solve the visiting order for a weight-matrix CSV.", [])
    p.add_argument("--weights", required=True)
    p.add_argument("--out", help="tour JSON (default: stdout)")
    p.set_defaults(func=_cmd_tsp)

    p = _sub(sub, "plan", "Plan a single leg between two points.", [planner])
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--start", required=True, help="x,y")
    p.add_argument("--goal", required=True, help="x,y")
    p.add_argument("--mask", help="promising-region PGM (guides rrt)")
    p.add_argument("--algorithm", choices=["rrt", "rrt-star"], default="rrt")
    p.add_argument("--out-path", required=True, help="path CSV")
    p.add_argument("--out-stats", help="stats JSON (length, samples used)")
    p.set_defaults(func=_cmd_plan)

    p = _sub(sub, "pipeline", "Run the full multi-goal pipeline.", [planner])
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", required=True, dest="goals_path")
    p.add_argument("--estimator", default="oracle", help="euclidean | oracle | external:<dir>")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default=GUIDED)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", help="also render the solution to this SVG file")
    p.set_defaults(func=_cmd_pipeline)

    p = _sub(sub, "bench", "Benchmark algorithms across scenarios.", [planner])
    p.add_argument("--scenarios", default="simple,complex", help="comma-separated builtin names")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--estimator", default="oracle")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_bench)

    p = _sub(sub, "score", "Score predictions against labels with the loss suite.", [])
    p.add_argument("--labels", required=True, help="label directory (masks + distances.csv)")
    p.add_argument("--predictions", required=True, help="prediction directory, same layout")
    p.add_argument("--alpha", default="1,1,1", help="loss weights")
    p.add_argument("--out", help="per-pair losses CSV")
    p.set_defaults(func=_cmd_score)

    p = _sub(sub, "render", "Render a map (and goals/masks/paths) to SVG.", [])
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", dest="goals_path")
    p.add_argument("--mask", action="append", default=[], help="mask PGM overlay (repeatable)")
    p.add_argument("--path", action="append", default=[], help="leg path CSV (repeatable)")
    p.add_argument("--solution-dir", help="pipeline output directory to draw legs from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def _sub(sub, name, help_text, parents):
    return sub.add_parser(name, help=help_text, description=help_text, parents=parents)


def _load_config(path) -> dict:
    values = {}
    for lineno, line in read_rows(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in _CONFIG_KEYS:
            raise FormatError(f"{path} line {lineno}: unknown key {key!r}")
        cast = _CONFIG_KEYS[key]
        try:
            values[key] = cast(value)
        except ValueError:
            raise FormatError(
                f"{path}: {key}={value!r} is not a valid {cast.__name__} (line {lineno})"
            ) from None
    return values


def _config_of(args) -> dict:
    """Config file values, overridden by the flags given; the seed defaults to 0."""
    config = {"seed": 0, **(_load_config(args.config) if args.config else {})}
    for key in _CONFIG_KEYS:  # each key is also the dest of a flag
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _planner_overrides(config) -> dict:
    return {attr: config[flag] for flag, attr, _, _ in _PLANNER_FLAGS if flag in config}


def _planner_config(config, grid: GridMap) -> PlannerConfig:
    return PlannerConfig.for_map(grid, seed=config["seed"], **_planner_overrides(config))


def _load_goals_on(grid: GridMap, path) -> GoalSet:
    """Goals from a file, each checked to lie in a free cell of grid."""
    goals = load_goals(path)
    try:
        goals.validate_on(grid)
    except InvalidArgument as exc:
        raise InvalidArgument(f"{path}: {exc}") from None
    return goals


def _load_mask_on(grid: GridMap, path) -> RegionMask:
    """A region mask from a PGM file, checked to match grid's shape."""
    mask = RegionMask.from_u8(read_pgm(path))
    try:
        mask.check_shape(grid)
    except InvalidArgument as exc:
        raise InvalidArgument(f"{path}: {exc}") from None
    return mask


def _parse_point(text: str) -> Point:
    try:
        x, y = text.split(",")
        return Point(float(x), float(y))
    except ValueError:
        raise FormatError(f"expected a point as 'x,y', got {text!r}") from None


def _cmd_gen_map(args) -> int:
    seed = _config_of(args)["seed"]
    spec = ObstacleSpec(
        count_range=(args.count_min, args.count_max),
        size_range=(args.size_min, args.size_max),
        density_range=(args.density_min, args.density_max),
    )
    grid = generate_map(seed, args.width, args.height, spec)
    goals = None
    if args.goals is not None:  # placed before saving, so a failure leaves no file
        goals = place_goals(grid, args.goals, derive_seed(seed, 1), args.min_sep)
    save_map(args.out, grid)
    print(f"wrote {args.out}: {grid.width}x{grid.height}, density {grid.density():.3f}")
    if goals is not None:
        goals_out = args.goals_out or (os.path.splitext(args.out)[0] + ".goals.csv")
        save_goals(goals_out, goals)
        print(f"wrote {goals_out}: {len(goals)} goals")
    return 0


def _cmd_gen_dataset(args) -> int:
    seed = _config_of(args)["seed"]
    manifest = generate_dataset(
        args.n, seed, args.out_dir, args.width, args.height, min_separation=args.min_sep
    )
    counts = {split: 0 for split in ("train", "val", "test")}
    for entry in manifest["samples"]:
        counts[entry["split"]] += 1
    print(
        f"wrote {args.n} samples to {args.out_dir} "
        f"(train {counts['train']}, val {counts['val']}, test {counts['test']})"
    )
    if args.validate:
        n = validate_dataset(args.out_dir)
        print(f"validated {n} samples against the shortest-path oracle")
    return 0


def _cmd_estimate(args) -> int:
    grid = load_map(args.map_path)
    goals = _load_goals_on(grid, args.goals_path)
    est = make_estimator(args.estimator, args.dilation_radius)
    matrix, _ = export_predictions(args.out_dir, grid, goals, est)
    matrix.to_csv(os.path.join(args.out_dir, "weights.csv"))
    n = matrix.m * (matrix.m - 1) // 2
    print(f"wrote {n} pair estimates and weights.csv to {args.out_dir}")
    return 0


def _cmd_tsp(args) -> int:
    matrix = WeightMatrix.from_csv(args.weights)
    result = solve_tsp(matrix)
    payload = json.dumps(
        {"order": list(result.tour.order), "cost": result.cost, "method": result.method},
        sort_keys=True,
    )
    if args.out:
        write_lines(args.out, [payload])
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def _cmd_plan(args) -> int:
    if args.mask and args.algorithm == "rrt-star":
        raise InvalidArgument("--mask guides only --algorithm rrt, not rrt-star")
    config = _config_of(args)
    grid = load_map(args.map_path)
    start = _parse_point(args.start)
    goal = _parse_point(args.goal)
    cfg = _planner_config(config, grid)

    t0 = time.perf_counter()
    if args.algorithm == "rrt-star":
        poly, samples = plan_leg_rrt_star(grid, start, goal, cfg)
    else:
        if args.mask:
            mask = _load_mask_on(grid, args.mask)
        else:
            mask = RegionMask((~grid.cells).astype(float))
        poly, samples = plan_leg_rrt(grid, start, goal, mask, cfg)
    wall = time.perf_counter() - t0

    save_path(args.out_path, poly)
    if args.out_stats:
        stats = {"length": poly.length, "samples_used": samples}
        write_lines(args.out_stats, [json.dumps(stats, sort_keys=True)])
    print(f"path length {poly.length:.3f} with {samples} samples in {wall:.3f}s")
    return 0


def _cmd_pipeline(args) -> int:
    config = _config_of(args)
    grid = load_map(args.map_path)
    goals = _load_goals_on(grid, args.goals_path)
    cfg = _planner_config(config, grid)

    t0 = time.perf_counter()
    solution = run_algorithm(grid, goals, args.algorithm, cfg, args.estimator)
    wall = time.perf_counter() - t0

    os.makedirs(args.out_dir, exist_ok=True)
    leg_files = []
    for k, leg in enumerate(solution.legs):
        rel = f"leg_{k:02d}.csv"
        save_path(os.path.join(args.out_dir, rel), leg)
        leg_files.append({"file": rel, "length": leg.length})
    summary = {
        "algorithm": solution.algorithm,
        "estimator": args.estimator if solution.algorithm == GUIDED else None,
        "seed": solution.seed,
        "order": list(solution.tour.order),
        "tsp_method": solution.tsp_method,
        "total_cost": solution.total_cost,
        "samples_total": solution.samples_total,
        "legs": leg_files,
    }
    solution_json = json.dumps(summary, indent=2, sort_keys=True)
    write_lines(os.path.join(args.out_dir, "solution.json"), [solution_json])
    if args.svg:
        render_svg(grid, goals, legs=solution.legs, out_path=args.svg)

    print(
        f"order {','.join(str(v) for v in solution.tour.order)}  "
        f"cost {solution.total_cost:.3f}  samples {solution.samples_total} in {wall:.3f}s"
    )
    return 0


def _cmd_bench(args) -> int:
    config = _config_of(args)
    scenarios = [builtin_scenario(name) for name in args.scenarios.split(",") if name]
    records = bench_mod.benchmark(
        scenarios,
        [a for a in args.algorithms.split(",") if a],
        repeats=args.repeats,
        base_seed=config["seed"],
        cfg_overrides=_planner_overrides(config),
        estimator=args.estimator,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    bench_mod.write_results_csv(os.path.join(args.out_dir, "results.csv"), records)
    bench_mod.write_aggregate_csv(os.path.join(args.out_dir, "aggregate.csv"), records)
    print(bench_mod.format_report(records))
    print(f"wrote results.csv and aggregate.csv to {args.out_dir}")
    return 0


def _cmd_score(args) -> int:
    try:
        weights = LossWeights(tuple(float(v) for v in args.alpha.split(",")))
    except ValueError as exc:
        raise FormatError(f"--alpha: {exc}") from None
    labels = load_external_predictions(args.labels)
    predictions = load_external_predictions(args.predictions)
    rows, agg = score_predictions(labels, predictions, weights)

    print(f"{'pair':>8} {'bce':>12} {'dice':>10} {'sq_err':>12}")
    for i, j, l1, l2, err in rows:
        print(f"{f'({i},{j})':>8} {l1:>12.4f} {l2:>10.4f} {err:>12.4f}")
    print(
        f"aggregate: bce_mean {agg['bce_mean']:.6f}  dice_mean {agg['dice_mean']:.6f}  "
        f"mse {agg['mse']:.6f}  total {agg['total']:.6f}"
    )
    if args.out:
        write_rows(args.out, [("i", "j", "bce", "dice", "squared_error"), *rows])
        print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    grid = load_map(args.map_path)
    goals = _load_goals_on(grid, args.goals_path) if args.goals_path else None
    masks = [_load_mask_on(grid, p) for p in args.mask] or None

    legs = [load_path(p) for p in args.path]
    if args.solution_dir:
        solution = os.path.join(args.solution_dir, "solution.json")
        legs.extend(
            load_path(os.path.join(args.solution_dir, leg["file"]))
            for leg in read_json_entries(solution, "legs", ("file",))
        )
    render_svg(grid, goals, masks=masks, legs=legs, out_path=args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
