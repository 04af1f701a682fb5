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
from .errors import BlockedPoint, FormatError, MultigoalError, OutOfBoundsError
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
    save_goals,
    save_map,
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
from .tsp import TspConfig, solve_tsp

_PLANNER_FLAGS = [
    # (flag dest, PlannerConfig attr, cast)
    ("step", "step_size", float),
    ("max_samples", "max_samples", int),
    ("k", "k", float),
    ("goal_tol", "goal_tolerance", float),
    ("rewire_radius", "rewire_radius", float),
    ("mask_threshold", "mask_threshold", float),
]


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

    p = _sub(sub, "gen-map", "Generate a random obstacle map (optionally with goals).")
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

    p = _sub(sub, "gen-dataset", "Generate a labeled two-goal dataset with 6:2:2 splits.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--min-sep", type=float)
    p.add_argument("--validate", action="store_true", help="re-check every written sample")
    p.set_defaults(func=_cmd_gen_dataset)

    p = _sub(sub, "estimate", "Estimate all goal-pair weights and region masks.")
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", required=True, dest="goals_path")
    p.add_argument("--estimator", default="oracle", help="euclidean | oracle | external:<dir>")
    p.add_argument("--dilation-radius", type=float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = _sub(sub, "tsp", "Solve the visiting order for a weight-matrix CSV.")
    p.add_argument("--weights", required=True)
    p.add_argument("--exact-threshold", type=int, default=13)
    p.add_argument("--out", help="tour JSON (default: stdout)")
    p.set_defaults(func=_cmd_tsp)

    p = _sub(sub, "plan", "Plan a single leg between two points.", planner=True)
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--start", required=True, help="x,y")
    p.add_argument("--goal", required=True, help="x,y")
    p.add_argument("--mask", help="promising-region PGM (guides rrt)")
    p.add_argument("--algorithm", choices=["rrt", "rrt-star"], default="rrt")
    p.add_argument("--out-path", required=True, help="path CSV")
    p.add_argument("--out-stats", help="stats JSON (length, samples, wall time)")
    p.set_defaults(func=_cmd_plan)

    p = _sub(sub, "pipeline", "Run the full multi-goal pipeline.", planner=True)
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", required=True, dest="goals_path")
    p.add_argument("--estimator", default="oracle", help="euclidean | oracle | external:<dir>")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default=GUIDED)
    p.add_argument("--exact-threshold", type=int, default=13)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", help="also render the solution to this SVG file")
    p.set_defaults(func=_cmd_pipeline)

    p = _sub(sub, "bench", "Benchmark algorithms across scenarios.", planner=True)
    p.add_argument("--scenarios", default="simple,complex", help="comma-separated builtin names")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--estimator", default="oracle")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--times-out", help="also write wall times to this CSV (not reproducible)")
    p.set_defaults(func=_cmd_bench)

    p = _sub(sub, "score", "Score predictions against labels with the loss suite.")
    p.add_argument("--labels", required=True, help="label directory (masks + distances.csv)")
    p.add_argument("--predictions", required=True, help="prediction directory, same layout")
    p.add_argument("--alpha", default="1,1,1", help="loss weights")
    p.add_argument("--out", help="per-pair losses CSV")
    p.set_defaults(func=_cmd_score)

    p = _sub(sub, "render", "Render a map (and goals/masks/paths) to SVG.")
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--goals", dest="goals_path")
    p.add_argument("--mask", action="append", default=[], help="mask PGM overlay (repeatable)")
    p.add_argument("--path", action="append", default=[], help="leg path CSV (repeatable)")
    p.add_argument("--solution-dir", help="pipeline output directory to draw legs from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def _sub(sub, name, help_text, planner=False):
    p = sub.add_parser(name, help=help_text, description=help_text)
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, default=None)
    if planner:
        p.add_argument("--step", type=float, default=None, help="extension step, cells")
        p.add_argument("--max-samples", type=int, default=None)
        p.add_argument("--k", type=float, default=None, help="goal-bias coefficient in [0,1]")
        p.add_argument("--goal-tol", type=float, default=None)
        p.add_argument("--rewire-radius", type=float, default=None)
        p.add_argument("--mask-threshold", type=float, default=None)
        p.add_argument("--density-sampling", action="store_true", default=None)
    return p


def _load_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path} line {lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_of(args) -> dict:
    return _load_config(args.config) if getattr(args, "config", None) else {}


def _config_value(args, config, key, cast, default=None):
    if key not in config:
        return default
    try:
        return cast(config[key])
    except ValueError:
        raise FormatError(f"{args.config}: {key}={config[key]!r} is not a valid {cast.__name__}") from None


def _seed_of(args, config) -> int:
    if args.seed is not None:
        return args.seed
    return _config_value(args, config, "seed", int, 0)


def _planner_overrides(args, config) -> dict:
    """PlannerConfig overrides from the planner flags, falling back to the config file."""
    overrides = {}
    for flag, attr, cast in _PLANNER_FLAGS:
        value = getattr(args, flag, None)
        if value is None:
            value = _config_value(args, config, flag, cast)
        if value is not None:
            overrides[attr] = value
    density = getattr(args, "density_sampling", None)
    if density is None and "density_sampling" in config:
        density = config["density_sampling"].lower() in ("1", "true", "yes")
    if density is not None:
        overrides["density_sampling"] = density
    try:
        PlannerConfig(**overrides)  # each check covers one field, so this rejects what for_map would
    except ValueError as exc:
        raise FormatError(f"planner settings: {exc}") from None
    return overrides


def _planner_config(args, config, grid: GridMap, seed: int) -> PlannerConfig:
    return PlannerConfig.for_map(grid, seed=seed, **_planner_overrides(args, config))


def _tsp_config(args) -> TspConfig:
    try:
        return TspConfig(exact_threshold=args.exact_threshold)
    except ValueError as exc:
        raise FormatError(f"--exact-threshold: {exc}") from None


def _load_goals_on(grid: GridMap, path) -> GoalSet:
    """Goals from a file, each checked to lie in a free cell of grid."""
    goals = load_goals(path)
    try:
        goals.validate_on(grid)
    except (BlockedPoint, OutOfBoundsError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return goals


def _parse_point(text: str) -> Point:
    try:
        x, y = text.split(",")
        return Point(float(x), float(y))
    except ValueError:
        raise FormatError(f"expected a point as 'x,y', got {text!r}") from None


def _cmd_gen_map(args) -> int:
    config = _config_of(args)
    seed = _seed_of(args, config)
    spec = ObstacleSpec(
        count_range=(args.count_min, args.count_max),
        size_range=(args.size_min, args.size_max),
        density_range=(args.density_min, args.density_max),
    )
    grid = generate_map(seed, args.width, args.height, spec)
    goals = None
    if args.goals:  # placed before anything is written, so a failure leaves no file behind
        goals = place_goals(grid, args.goals, derive_seed(seed, 1), args.min_sep)
    save_map(args.out, grid)
    print(f"wrote {args.out}: {grid.width}x{grid.height}, density {grid.density():.3f}")
    if goals is not None:
        goals_out = args.goals_out or (os.path.splitext(args.out)[0] + ".goals.csv")
        save_goals(goals_out, goals)
        print(f"wrote {goals_out}: {len(goals)} goals")
    return 0


def _cmd_gen_dataset(args) -> int:
    config = _config_of(args)
    seed = _seed_of(args, config)
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
    result = solve_tsp(matrix, _tsp_config(args))
    payload = json.dumps(
        {"order": list(result.tour.order), "cost": result.cost, "method": result.method},
        sort_keys=True,
    )
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as f:
            f.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def _cmd_plan(args) -> int:
    config = _config_of(args)
    seed = _seed_of(args, config)
    grid = load_map(args.map_path)
    start = _parse_point(args.start)
    goal = _parse_point(args.goal)
    cfg = _planner_config(args, config, grid, seed)

    t0 = time.perf_counter()
    if args.algorithm == "rrt-star":
        poly, samples = plan_leg_rrt_star(grid, start, goal, cfg)
    else:
        if args.mask:
            mask = RegionMask.from_u8(read_pgm(args.mask))
        else:
            mask = RegionMask((~grid.cells).astype(float))
        poly, samples = plan_leg_rrt(grid, start, goal, mask, cfg)
    wall = time.perf_counter() - t0

    save_path(args.out_path, poly)
    stats = {"length": poly.length, "samples_used": samples, "wall_time_s": wall}
    if args.out_stats:
        with open(args.out_stats, "w", encoding="ascii", newline="\n") as f:
            json.dump(stats, f, sort_keys=True)
            f.write("\n")
    print(f"path length {poly.length:.3f} with {samples} samples in {wall:.3f}s")
    return 0


def _cmd_pipeline(args) -> int:
    config = _config_of(args)
    seed = _seed_of(args, config)
    grid = load_map(args.map_path)
    goals = _load_goals_on(grid, args.goals_path)
    cfg = _planner_config(args, config, grid, seed)
    tsp_config = _tsp_config(args)

    solution = run_algorithm(grid, goals, args.algorithm, cfg, tsp_config, args.estimator)

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
    with open(os.path.join(args.out_dir, "solution.json"), "w", encoding="ascii", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.svg:
        render_svg(grid, goals, legs=solution.legs, out_path=args.svg)

    t = solution.timings
    print(
        f"order {','.join(str(v) for v in solution.tour.order)}  "
        f"cost {solution.total_cost:.3f}  samples {solution.samples_total}"
    )
    print(
        f"timings: estimation {t['estimation']:.3f}s, tsp {t['tsp']:.3f}s, "
        f"planning {t['planning']:.3f}s"
    )
    return 0


def _cmd_bench(args) -> int:
    config = _config_of(args)
    base_seed = args.base_seed
    if base_seed is None:
        base_seed = _config_value(args, config, "base_seed", int, _seed_of(args, config))
    scenarios = [builtin_scenario(name) for name in args.scenarios.split(",") if name]
    algorithms = [a for a in args.algorithms.split(",") if a]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise FormatError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")

    records = bench_mod.benchmark(
        scenarios,
        algorithms,
        repeats=args.repeats,
        base_seed=base_seed,
        cfg_overrides=_planner_overrides(args, config),
        estimator=args.estimator,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    bench_mod.write_results_csv(os.path.join(args.out_dir, "results.csv"), records)
    bench_mod.write_aggregate_csv(os.path.join(args.out_dir, "aggregate.csv"), records)
    if args.times_out:
        bench_mod.write_timings_csv(args.times_out, records)
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
        with open(args.out, "w", encoding="ascii", newline="\n") as f:
            f.write("i,j,bce,dice,squared_error\n")
            for i, j, l1, l2, err in rows:
                f.write(f"{i},{j},{l1!r},{l2!r},{err!r}\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    grid = load_map(args.map_path)
    goals = _load_goals_on(grid, args.goals_path) if args.goals_path else None
    masks = [RegionMask.from_u8(read_pgm(p)) for p in args.mask] or None

    legs = [load_path(p) for p in args.path]
    if args.solution_dir:
        with open(os.path.join(args.solution_dir, "solution.json"), "r", encoding="ascii") as f:
            summary = json.load(f)
        legs.extend(
            load_path(os.path.join(args.solution_dir, leg["file"])) for leg in summary["legs"]
        )
    render_svg(grid, goals, masks=masks, legs=legs, out_path=args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
