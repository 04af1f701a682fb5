"""Seeded benchmark harness comparing planning algorithms across scenarios.

The results CSV is a pure function of (scenarios, algorithms, repeats, base
seed), so reruns are byte-identical. Per-run wall times are kept in memory
for the printed report only.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

from .errors import InvalidArgument, NoPathFound, Unreachable
from .grid import write_rows
from .pipeline import ALGORITHMS, Solution, check_algorithm, run_algorithm
from .planner import PlannerConfig

RESULTS_HEADER = ["scenario", "algorithm", "repeat", "seed", "cost", "samples", "order"]
AGGREGATE_HEADER = ["scenario", "algorithm", "runs", "failures",
                    "cost_median", "cost_min", "cost_max"]


@dataclass
class BenchmarkRecord:
    """One run: its Solution, or None when the run failed."""

    scenario: str
    algorithm: str
    repeat: int
    seed: int
    wall_time_s: float
    solution: Solution | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return self.solution is None

    @property
    def cost(self) -> float | None:
        return None if self.failed else self.solution.total_cost

    @property
    def samples(self) -> int | None:
        return None if self.failed else self.solution.samples_total

    @property
    def order(self) -> tuple[int, ...] | None:
        return None if self.failed else self.solution.tour.order


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
    sweep. Every algorithm name is checked before the first run.
    """
    if repeats < 1:
        raise InvalidArgument("repeats must be at least 1")
    if not (scenarios and algorithms):  # no run would check the planner settings
        raise InvalidArgument("benchmark needs at least one scenario and one algorithm")
    for algorithm in algorithms:
        check_algorithm(algorithm)
    records = []
    for scenario in scenarios:
        for algorithm in algorithms:
            for repeat in range(repeats):
                seed = bench_seed(base_seed, scenario.scenario_id, algorithm, repeat)
                cfg = PlannerConfig.for_map(scenario.grid, seed=seed, **(cfg_overrides or {}))
                solution = None
                t0 = time.perf_counter()
                try:
                    solution = run_algorithm(
                        scenario.grid, scenario.goals, algorithm, cfg, estimator=estimator
                    )
                except (NoPathFound, Unreachable):
                    pass
                wall = time.perf_counter() - t0
                records.append(
                    BenchmarkRecord(scenario.scenario_id, algorithm, repeat, seed, wall, solution)
                )
    return records


def write_results_csv(path, records) -> None:
    """Deterministic results table: one row per run, FAILED in place of a failed run's order."""
    rows = [
        [r.scenario, r.algorithm, r.repeat, r.seed, r.cost, r.samples,
         "FAILED" if r.failed else ",".join(map(str, r.order))]
        for r in records
    ]
    write_rows(path, [RESULTS_HEADER, *rows])


def _groups(records) -> list[tuple[tuple[str, str], list[BenchmarkRecord]]]:
    """The records of each (scenario, algorithm), in sorted key order."""
    groups: dict[tuple[str, str], list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.scenario, r.algorithm), []).append(r)
    return sorted(groups.items())


def aggregate(records) -> list[dict]:
    """Per (scenario, algorithm): run counts and cost statistics over successes,
    keyed by AGGREGATE_HEADER."""
    rows = []
    for (scenario, algorithm), group in _groups(records):
        costs = [r.cost for r in group if not r.failed]
        stats = [statistics.median(costs), min(costs), max(costs)] if costs else [None] * 3
        values = [scenario, algorithm, len(group), len(group) - len(costs), *stats]
        rows.append(dict(zip(AGGREGATE_HEADER, values)))
    return rows


def write_aggregate_csv(path, records) -> None:
    write_rows(path, [AGGREGATE_HEADER, *(row.values() for row in aggregate(records))])


def format_report(records) -> str:
    """Readable summary including median wall times, which no CSV holds."""
    lines = [
        f"{'scenario':<12} {'algorithm':<20} {'ok':>3} {'fail':>4} "
        f"{'median cost':>12} {'median time':>12}"
    ]
    for row, (_, group) in zip(aggregate(records), _groups(records)):
        cost = row["cost_median"]
        cost_s = "-" if cost is None else f"{cost:.2f}"
        time_s = statistics.median([r.wall_time_s for r in group])
        lines.append(
            f"{row['scenario']:<12} {row['algorithm']:<20} {row['runs'] - row['failures']:>3} "
            f"{row['failures']:>4} {cost_s:>12} {time_s:>11.3f}s"
        )
    return "\n".join(lines)
