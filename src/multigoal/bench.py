"""Seeded benchmark harness comparing planning algorithms across scenarios.

The results CSV is a pure function of (scenarios, algorithms, repeats, base
seed): per-run wall times are kept in memory for the printed report and the
optional timing sidecar, but the time_s column of the results file is left
empty so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
import time
from dataclasses import dataclass, field

from .errors import InvalidArgument, NoPathFound, Unreachable
from .pipeline import ALGORITHMS, Solution, run_algorithm
from .planner import PlannerConfig

RESULTS_HEADER = ["scenario", "algorithm", "repeat", "seed", "cost", "time_s", "samples", "order"]


@dataclass
class BenchmarkRecord:
    scenario: str
    algorithm: str
    repeat: int
    seed: int
    cost: float | None
    wall_time_s: float
    samples: int | None
    order: tuple[int, ...] | None
    error: str | None = None
    solution: Solution | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


def bench_seed(base: int, scenario_id: str, algorithm: str, repeat: int) -> int:
    """Stable 64-bit run seed from the base seed and the run coordinates."""
    key = f"{base}|{scenario_id}|{algorithm}|{repeat}".encode("ascii")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def benchmark(
    scenarios,
    algorithms=ALGORITHMS,
    repeats: int = 20,
    base_seed: int = 0,
    cfg_overrides: dict | None = None,
    estimator: str = "oracle",
) -> list[BenchmarkRecord]:
    """Run every (scenario, algorithm, repeat) combination independently.

    Each successful record carries its Solution. Individual failures (no
    path, unreachable pair) become failed records rather than aborting the
    sweep.
    """
    if repeats < 1:
        raise InvalidArgument("repeats must be at least 1")
    records = []
    for scenario in scenarios:
        for algorithm in algorithms:
            for repeat in range(repeats):
                seed = bench_seed(base_seed, scenario.scenario_id, algorithm, repeat)
                cfg = PlannerConfig.for_map(scenario.grid, seed=seed, **(cfg_overrides or {}))
                t0 = time.perf_counter()
                try:
                    sol = run_algorithm(
                        scenario.grid, scenario.goals, algorithm, cfg, estimator=estimator
                    )
                    records.append(
                        BenchmarkRecord(
                            scenario.scenario_id,
                            algorithm,
                            repeat,
                            seed,
                            sol.total_cost,
                            time.perf_counter() - t0,
                            sol.samples_total,
                            sol.tour.order,
                            solution=sol,
                        )
                    )
                except (NoPathFound, Unreachable) as exc:
                    records.append(
                        BenchmarkRecord(
                            scenario.scenario_id,
                            algorithm,
                            repeat,
                            seed,
                            None,
                            time.perf_counter() - t0,
                            None,
                            None,
                            error=type(exc).__name__,
                        )
                    )
    return records


def write_results_csv(path, records) -> None:
    """Deterministic results table; the time_s column is intentionally empty."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.scenario,
                    r.algorithm,
                    r.repeat,
                    r.seed,
                    "" if r.cost is None else repr(r.cost),
                    "",
                    "" if r.samples is None else r.samples,
                    "FAILED" if r.order is None else ",".join(str(v) for v in r.order),
                ]
            )


def write_timings_csv(path, records) -> None:
    """Wall-time sidecar; machine dependent, excluded from determinism guarantees."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["scenario", "algorithm", "repeat", "time_s"])
        for r in records:
            writer.writerow([r.scenario, r.algorithm, r.repeat, f"{r.wall_time_s:.6f}"])


def aggregate(records) -> list[dict]:
    """Per (scenario, algorithm): run counts and cost statistics over successes."""
    groups: dict[tuple[str, str], list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.scenario, r.algorithm), []).append(r)
    rows = []
    for (scenario, algorithm), group in sorted(groups.items()):
        costs = [r.cost for r in group if r.cost is not None]
        rows.append(
            {
                "scenario": scenario,
                "algorithm": algorithm,
                "runs": len(group),
                "failures": sum(1 for r in group if r.failed),
                "cost_median": statistics.median(costs) if costs else None,
                "cost_min": min(costs) if costs else None,
                "cost_max": max(costs) if costs else None,
            }
        )
    return rows


def write_aggregate_csv(path, records) -> None:
    rows = aggregate(records)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["scenario", "algorithm", "runs", "failures", "cost_median", "cost_min", "cost_max"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["scenario"],
                    row["algorithm"],
                    row["runs"],
                    row["failures"],
                    *("" if row[k] is None else repr(row[k]) for k in ("cost_median", "cost_min", "cost_max")),
                ]
            )


def format_report(records) -> str:
    """Readable summary including median wall times (not part of the CSV artifacts)."""
    groups: dict[tuple[str, str], list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.scenario, r.algorithm), []).append(r)
    lines = [
        f"{'scenario':<12} {'algorithm':<20} {'ok':>3} {'fail':>4} "
        f"{'median cost':>12} {'median time':>12}"
    ]
    for (scenario, algorithm), group in sorted(groups.items()):
        costs = [r.cost for r in group if r.cost is not None]
        times = [r.wall_time_s for r in group]
        cost_s = f"{statistics.median(costs):.2f}" if costs else "-"
        lines.append(
            f"{scenario:<12} {algorithm:<20} {len(costs):>3} {len(group) - len(costs):>4} "
            f"{cost_s:>12} {statistics.median(times):>11.3f}s"
        )
    return "\n".join(lines)
