"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import statistics
import time

import numpy as np

import multigoal as mg
from multigoal.bench import benchmark
from multigoal.cli import main as cli_main
from multigoal.dataset import generate_dataset, validate_dataset
from scenario_families import comb_map, narrow_passage_instance


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def brute_force(w):
    """Enumerate each undirected cycle once, in canonical direction.

    Returns (order, cost, n_optima) where n_optima counts tours attaining the
    minimum cost exactly.
    """
    arr = w.w
    m = arr.shape[0]
    best_cost, best_order, n_opt = None, None, 0
    for perm in itertools.permutations(range(1, m)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        cost = 0.0
        for k in range(m):
            cost += arr[order[k], order[(k + 1) % m]]
        if best_cost is None or cost < best_cost:
            best_cost, best_order, n_opt = cost, order, 1
        elif cost == best_cost:
            n_opt += 1
    return best_order, best_cost, n_opt


def random_matrix(rng, m):
    a = rng.uniform(0.1, 10.0, (m, m))
    w = np.triu(a, 1)
    return mg.WeightMatrix(w + w.T)


def test_criterion_1_tsp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240001)
    checked = unique_agreed = 0
    for _ in range(200):
        m = int(rng.integers(4, 9))
        w = random_matrix(rng, m)
        tour, cost = mg.held_karp(w)
        b_order, b_cost, n_opt = brute_force(w)
        assert cost == b_cost, f"cost mismatch: {cost} vs brute-force {b_cost}"
        if n_opt == 1:
            assert tour.order == b_order, f"order mismatch: {tour.order} vs {b_order}"
            unique_agreed += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        checked == 200 and elapsed < 10.0,
        f"held_karp == brute force on {checked} matrices "
        f"({unique_agreed} unique optima, orders agreed), {elapsed:.2f}s < 10s",
    )


def test_criterion_2_heuristic_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240002)
    ratios = []
    for _ in range(100):
        w = random_matrix(rng, 12)
        nn = mg.nearest_neighbor(w, 0)
        improved = mg.local_search_improve(w, nn)
        nn_cost = mg.tour_cost(w, nn)
        ls_cost = mg.tour_cost(w, improved)
        assert ls_cost <= nn_cost + 1e-12, "local search worse than its seed"
        _, exact_cost = mg.held_karp(w)
        ratios.append(ls_cost / exact_cost)
    elapsed = time.perf_counter() - t0
    med = statistics.median(ratios)
    report(
        2,
        med <= 1.05 and elapsed < 5.0,
        f"median heuristic/exact ratio {med:.4f} <= 1.05 over 100 M=12 instances, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_3_loss_fidelity():
    t0 = time.perf_counter()
    # hand-evaluated values, computed independently from the formulas
    bce = mg.bce_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(bce - 2.0 * math.log(2.0)) < 1e-9
    dice = mg.dice_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(dice - 1.0 / 3.0) < 1e-9
    mse = mg.mse_loss([1.0, 2.0, 3.0], [2.0, 2.0, 5.0])
    assert abs(mse - 5.0 / 3.0) < 1e-9
    total = mg.total_loss([0.5, 1.0 / 3.0, 5.0 / 3.0])
    assert abs(total - math.log(5.0 / 18.0)) < 1e-9

    rng = np.random.default_rng(20240003)
    for _ in range(1000):
        y = (rng.random((5, 5)) < 0.5).astype(float)
        yhat = rng.uniform(0.0, 1.0, (5, 5))
        assert mg.bce_loss(y, yhat) >= 0.0
        if y.any() or yhat.any():
            assert 0.0 <= mg.dice_loss(y, yhat) <= 1.0
        losses = rng.uniform(1e-6, 10.0, 3)
        alpha = mg.LossWeights(tuple(rng.uniform(0.1, 3.0, 3)))
        bumped = losses.copy()
        i = rng.integers(0, 3)
        bumped[i] *= 1.0 + rng.uniform(0.01, 0.5)
        assert mg.total_loss(bumped, alpha) > mg.total_loss(losses, alpha)
    elapsed = time.perf_counter() - t0
    report(3, True, f"hand-evaluated examples to 1e-9 and 1000-case property suite, {elapsed:.2f}s")


def test_criterion_4_ordering_advantage():
    t0 = time.perf_counter()
    diffs = []
    not_worse = 0
    made = 0
    seed = 0
    while made < 50:
        seed += 1
        grid = comb_map(20240100 + seed)
        if grid.density() < 0.25:
            continue
        try:
            goals = mg.place_goals(grid, 8, 20240200 + seed, min_separation=6)
        except mg.PlacementFailed:
            continue
        made += 1
        w_true, _ = mg.build_weight_matrix(grid, goals, mg.GridOracleEstimator(dilation_radius=0))
        w_eu, _ = mg.build_weight_matrix(grid, goals, mg.EuclideanEstimator())
        tour_true, cost_true = mg.held_karp(w_true)
        tour_eu, _ = mg.held_karp(w_eu)
        cost_eu_under_true = mg.tour_cost(w_true, tour_eu)
        diffs.append(cost_eu_under_true - cost_true)
        if cost_eu_under_true >= cost_true - 1e-9:
            not_worse += 1
    elapsed = time.perf_counter() - t0
    med = statistics.median(diffs)
    ok = not_worse >= 0.6 * 50 and med > 0.0 and elapsed < 60.0
    report(
        4,
        ok,
        f"oracle-weight tour <= euclidean-weight tour in {not_worse}/50 instances, "
        f"median advantage {med:.3f} cells > 0, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_heuristic_sampling_speedup():
    t0 = time.perf_counter()
    guided_counts, uniform_counts = [], []
    guided_ok = uniform_ok = 0
    for s in range(50):
        grid, start, goal = narrow_passage_instance(20240300 + s)
        path, _ = mg.grid_shortest_path(grid, start, goal)
        mask = mg.dilate_path_to_region(grid, path, mg.default_dilation_radius(grid))
        uniform_mask = mg.RegionMask((~grid.cells).astype(float))
        cfg = mg.PlannerConfig.for_map(grid, seed=20240400 + s)  # k=0.1, max 2000
        try:
            _, used = mg.plan_leg_rrt(grid, start, goal, mask, cfg)
            guided_counts.append(used)
            guided_ok += 1
        except mg.NoPathFound:
            guided_counts.append(cfg.max_samples)
        try:
            _, used = mg.plan_leg_rrt(grid, start, goal, uniform_mask, cfg)
            uniform_counts.append(used)
            uniform_ok += 1
        except mg.NoPathFound:
            uniform_counts.append(cfg.max_samples)
    elapsed = time.perf_counter() - t0
    med_g = statistics.median(guided_counts)
    med_u = statistics.median(uniform_counts)
    ok = med_g <= 0.5 * med_u and guided_ok >= uniform_ok and elapsed < 120.0
    report(
        5,
        ok,
        f"median samples guided {med_g} <= 0.5 x uniform {med_u} "
        f"(success {guided_ok}/50 vs {uniform_ok}/50), {elapsed:.1f}s < 120s",
    )


def test_criterion_6_pipeline_integrity():
    t0 = time.perf_counter()
    scenarios = [mg.builtin_scenario("simple"), mg.builtin_scenario("complex")]
    records = benchmark(scenarios, mg.ALGORITHMS, repeats=3, base_seed=20240500)
    verified = failed = 0
    for record in records:
        if record.failed:
            failed += 1
            continue
        scenario = scenarios[0] if record.scenario == "simple" else scenarios[1]
        cfg = mg.PlannerConfig.for_map(scenario.grid, seed=record.seed)
        mg.verify_solution(scenario.grid, scenario.goals, record.solution, cfg)
        assert sorted(record.solution.tour.order) == list(range(len(scenario.goals)))
        verified += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        verified > 0 and verified + failed == len(records),
        f"{verified} solutions passed closure + half-resolution re-check + tour "
        f"constraints ({failed} recorded failures) across the benchmark suite, {elapsed:.1f}s",
    )


def test_criterion_7_dataset_validity(tmp_path):
    t0 = time.perf_counter()
    out_a = tmp_path / "a"
    manifest = generate_dataset(200, 20240600, out_a)
    counts = {"train": 0, "val": 0, "test": 0}
    for entry in manifest["samples"]:
        counts[entry["split"]] += 1
    assert counts == {"train": 120, "val": 40, "test": 40}
    assert validate_dataset(out_a) == 200  # mask covers path, distances exact

    out_b = tmp_path / "b"
    generate_dataset(200, 20240600, out_b)
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    elapsed = time.perf_counter() - t0
    report(
        7,
        elapsed < 60.0,
        f"200 samples split 120/40/40, all revalidated, regeneration byte-identical, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    sc = mg.builtin_scenario("simple")
    map_path = tmp_path / "world.map"
    goals_path = tmp_path / "goals.csv"
    mg.save_map(map_path, sc.grid)
    mg.save_goals(goals_path, sc.goals)

    def tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }

    pipe_outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        code = cli_main(
            ["pipeline", "--map", str(map_path), "--goals", str(goals_path),
             "--seed", "77", "--out-dir", str(out)]
        )
        assert code == 0
        pipe_outs.append(tree_bytes(out))
    assert pipe_outs[0] == pipe_outs[1]

    bench_outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        code = cli_main(
            ["bench", "--scenarios", "simple", "--algorithms", "guided,euclidean-rrt-star",
             "--repeats", "2", "--seed", "11", "--out-dir", str(out)]
        )
        assert code == 0
        bench_outs.append(tree_bytes(out))
    assert bench_outs[0] == bench_outs[1]
    elapsed = time.perf_counter() - t0
    report(
        8,
        True,
        f"pipeline and bench reruns byte-identical "
        f"({len(pipe_outs[0])} + {len(bench_outs[0])} files), {elapsed:.1f}s",
    )
