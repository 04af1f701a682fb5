"""The four workloads: seeded instance generation, one timed call, output checks.

Every workload is a closed loop of one client: the harness runs one instance,
checks it, and only then starts the next. Instances are made from the
workload seed before timing starts; the package receives only the generated
inputs, rebuilt as fresh objects for every run so that no state cached on a
``GridMap`` carries over from one run to the next.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

import multigoal as mg
from multigoal.errors import NoPathFound, PlacementFailed, Unreachable

SIZE = 64
# Obstacle density of the built-in ``complex`` scenario's range.
OBSTACLES = dict(density_range=(0.15, 0.30))


class WrongOutput(Exception):
    """The package returned an output that fails the benchmark's checks."""


def derive(*parts: int) -> int:
    """64-bit seed from a path of integers; independent of the package's own helpers."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


@dataclass(frozen=True)
class Checked:
    """What the harness keeps of one checked instance."""

    solved: bool
    cost: float | None
    digest_line: str
    samples: int = 0  # dataset samples written (dataset workload only)
    bytes_written: int = 0


@dataclass(frozen=True)
class MapInstance:
    index: int
    cells: np.ndarray
    goals: tuple[tuple[float, float], ...]
    planner_seed: int


@dataclass(frozen=True)
class PlanningWorkload:
    """One ``run_algorithm`` call per instance on a seeded random map."""

    name: str
    algorithm: str
    estimator: str
    goals: int
    min_separation: float
    max_samples: int
    # Free cells kept between each goal and any obstacle or the map border.
    clearance: int
    # The fixed instance set every run measures; its ten slowest lie beyond instance_s.tail.
    instances: int

    def generate(self, seed: int, index: int) -> MapInstance:
        spec = mg.ObstacleSpec(**OBSTACLES)
        for attempt in range(100):
            grid = mg.generate_map(derive(seed, 1, index, attempt), SIZE, SIZE, spec)
            hosts = grid
            if self.clearance:
                # obstacles grown by the clearance, the border counted as obstacle
                c = self.clearance
                padded = np.pad(grid.cells, c, constant_values=True)
                grown = ndimage.binary_dilation(padded, structure=np.ones((3, 3), dtype=bool), iterations=c)
                hosts = mg.GridMap(grown[c:-c, c:-c])
            try:
                goals = mg.place_goals(hosts, self.goals, derive(seed, 2, index, attempt), self.min_separation)
            except PlacementFailed:
                continue
            cells = grid.cells.copy()
            cells.setflags(write=False)
            return MapInstance(index, cells, tuple((p.x, p.y) for p in goals), derive(seed, 3, index))
        raise PlacementFailed(f"instance {index}: no map hosts {self.goals} goals")

    def prepare(self, inst: MapInstance):
        grid = mg.GridMap(inst.cells)
        goals = mg.GoalSet([mg.Point(x, y) for x, y in inst.goals])
        cfg = mg.PlannerConfig.for_map(grid, seed=inst.planner_seed, max_samples=self.max_samples)
        return grid, goals, cfg

    def execute(self, prepared):
        grid, goals, cfg = prepared
        try:
            # looked up on the module at call time, so a traced run sees its wrapper
            return mg.pipeline.run_algorithm(grid, goals, self.algorithm, cfg, estimator=self.estimator)
        except (NoPathFound, Unreachable) as exc:
            return exc

    def check(self, inst: MapInstance, prepared, out) -> Checked:
        if isinstance(out, Exception):
            return Checked(False, None, f"{inst.index}|FAIL|{type(out).__name__}")
        grid, goals, cfg = prepared
        check_solution(grid, goals, cfg.goal_tolerance, out)
        order = ",".join(str(v) for v in out.tour.order)
        line = f"{inst.index}|{order}|{out.total_cost!r}|{out.samples_total}"
        return Checked(True, out.total_cost, line)

    def cleanup(self, prepared) -> None:
        pass


def check_solution(grid, goals, goal_tolerance: float, sol) -> None:
    """Raise WrongOutput unless sol is a closed, collision-free tour of every goal.

    The tour is a permutation of the goals; each leg starts and ends within
    the goal tolerance of its goals and chains into the next leg; every leg
    segment passes the exact ``GridMap.segment_clear``; ``total_cost`` equals
    the sum of the leg lengths.
    """
    m = len(goals)
    order = list(sol.tour.order)
    if sorted(order) != list(range(m)):
        raise WrongOutput(f"tour {order} is not a permutation of {m} goals")
    if len(sol.legs) != m:
        raise WrongOutput(f"{len(sol.legs)} legs for {m} goals")
    total = 0.0
    for k, leg in enumerate(sol.legs):
        pts = leg.points
        a, b = goals[order[k]], goals[order[(k + 1) % m]]
        nxt = sol.legs[(k + 1) % m].points[0]
        if math.hypot(pts[0].x - a.x, pts[0].y - a.y) > goal_tolerance + 1e-9:
            raise WrongOutput(f"leg {k} starts away from goal {order[k]}")
        if math.hypot(pts[-1].x - b.x, pts[-1].y - b.y) > goal_tolerance + 1e-9:
            raise WrongOutput(f"leg {k} ends away from goal {order[(k + 1) % m]}")
        if math.hypot(pts[-1].x - nxt.x, pts[-1].y - nxt.y) > 1e-9:
            raise WrongOutput(f"leg {k} does not chain into leg {(k + 1) % m}")
        for p, q in zip(pts, pts[1:]):
            if not grid.segment_clear(p, q):
                raise WrongOutput(f"leg {k} segment ({p.x}, {p.y})->({q.x}, {q.y}) hits an obstacle")
            total += math.hypot(q.x - p.x, q.y - p.y)
    if not math.isclose(total, sol.total_cost, rel_tol=1e-9, abs_tol=1e-9):
        raise WrongOutput(f"total_cost {sol.total_cost!r} != sum of leg lengths {total!r}")


@dataclass(frozen=True)
class DatasetInstance:
    index: int
    dataset_seed: int


@dataclass(frozen=True)
class DatasetWorkload:
    """``generate_dataset`` then ``validate_dataset`` into a fresh directory."""

    name: str
    n: int  # samples per dataset
    instances: int
    workdir: str

    def generate(self, seed: int, index: int) -> DatasetInstance:
        return DatasetInstance(index, derive(seed, 4, index))

    def prepare(self, inst: DatasetInstance):
        path = os.path.join(self.workdir, f"dataset_{inst.index}")
        shutil.rmtree(path, ignore_errors=True)
        return path, inst.dataset_seed

    def execute(self, prepared):
        path, seed = prepared
        manifest = mg.dataset.generate_dataset(self.n, seed, path)
        try:
            return manifest, mg.dataset.validate_dataset(path)
        except ValueError as exc:  # validate_dataset's report of a bad sample
            return manifest, exc

    def check(self, inst: DatasetInstance, prepared, out) -> Checked:
        path, _ = prepared
        manifest, validated = out
        if isinstance(validated, ValueError):
            raise WrongOutput(f"validate_dataset: {validated}")
        if validated != self.n or manifest["n"] != self.n or len(manifest["samples"]) != self.n:
            raise WrongOutput(f"dataset of {self.n} samples validated {validated}")
        splits = [s["split"] for s in manifest["samples"]]
        want = {"train": 6 * self.n // 10, "val": 2 * self.n // 10}
        if splits.count("train") != want["train"] or splits.count("val") != want["val"]:
            raise WrongOutput(f"split {splits} is not 6:2:2")
        digest = hashlib.sha256()
        size = 0
        for rel in sorted(_files(path)):
            with open(os.path.join(path, rel), "rb") as f:
                data = f.read()
            size += len(data)
            digest.update(rel.encode() + b"\0" + data)
        for s in manifest["samples"]:
            for key in ("map", "goals", "mask"):
                if not os.path.isfile(os.path.join(path, s[key])):
                    raise WrongOutput(f"{s['id']}: {s[key]} was not written")
        cost = sum(s["distance"] for s in manifest["samples"]) / self.n
        line = f"{inst.index}|{digest.hexdigest()}|{cost!r}|{self.n}"
        return Checked(True, cost, line, samples=self.n, bytes_written=size)

    def cleanup(self, prepared) -> None:
        shutil.rmtree(prepared[0], ignore_errors=True)


def _files(root):
    for dirpath, _, names in os.walk(root):
        for name in names:
            yield os.path.relpath(os.path.join(dirpath, name), root)


def all_workloads(workdir: str) -> dict:
    """The workloads by name. BENCHMARK.json says why each one exists."""
    return {
        w.name: w
        for w in (
            # Grid search is ~90% of the time; Held-Karp solves the 10-goal order.
            PlanningWorkload("oracle-guided", "guided", "oracle", goals=10, min_separation=8.0,
                             max_samples=2000, clearance=0, instances=30),
            # RRT* pair plans are nearly all of the time; no grid search runs. A
            # goal in a one-cell pocket makes RRT* miss it now and then, so goals
            # keep two free cells around them.
            PlanningWorkload("rrt-star", "rrt-star", "oracle", goals=3, min_separation=8.0,
                             max_samples=2000, clearance=2, instances=32),
            # The only heuristic-TSP workload; first-feasible RRT over 40 legs on
            # whole-map regions. The budget is large enough that no leg gives up.
            PlanningWorkload("many-goals", "guided", "euclidean", goals=40, min_separation=4.0,
                             max_samples=20000, clearance=1, instances=160),
            # One grid search per sample, twice with validation, beside text and PGM I/O.
            DatasetWorkload("dataset", n=10, instances=48, workdir=workdir),
        )
    }
