"""What the traced run wraps, and the per-layer metrics it derives from the trace.

Each per-layer metric names the end-to-end metrics and workloads it is
expected to move (``moves``), so a later change that claims a gain on one
layer says in advance where the saving must show. Names that the package
plans to drop (``Solution.timings``, ``collision_resolution``,
``verify_solution``, ``nearest_node``, ``estimate_pair``, ``hybrid_sample``)
are not used, and per-cell helpers such as ``GridMap.cell_free`` are not
wrapped: a wrapper there costs more than the call it times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .tracer import Tracer, Wrap


def _count(name, amount=1):
    def hook(tracer, args, kwargs, value):
        tracer.counts[name] += amount(value) if callable(amount) else amount

    return hook


def _tsp_method(tracer, args, kwargs, result):
    tracer.counts["tsp.exact" if result.method == "EXACT" else "tsp.heuristic"] += 1


def _planner_failed(tracer, args, kwargs, exc):
    from multigoal.errors import NoPathFound

    if isinstance(exc, NoPathFound):
        tracer.counts["planner.failures"] += 1
        # both planners raise only after spending the whole sample budget
        cfg = next(a for a in (*args, *kwargs.values()) if hasattr(a, "max_samples"))
        tracer.counts["planner.samples"] += cfg.max_samples


_plan_samples = _count("planner.samples", lambda result: result[1])

WRAPS = (
    Wrap("multigoal.pipeline:run_algorithm", "pipeline"),
    Wrap("multigoal.pipeline:build_weight_matrix", "estimators.build"),
    Wrap(
        "multigoal.estimators:grid_shortest_path",
        "estimators.search",
        on_return=_count("estimators.search.path_cells", lambda result: len(result[0])),
    ),
    Wrap(
        "multigoal.dataset:grid_shortest_path",
        "estimators.search",
        on_return=_count("estimators.search.path_cells", lambda result: len(result[0])),
    ),
    Wrap("multigoal.estimators:dilate_path_to_region", "estimators.dilate"),
    Wrap("multigoal.dataset:dilate_path_to_region", "estimators.dilate"),
    Wrap("multigoal.pipeline:solve_tsp", "tsp", on_return=_tsp_method),
    Wrap("multigoal.tsp:held_karp", "tsp.held_karp"),
    Wrap("multigoal.tsp:local_search_improve", "tsp.local_search"),
    Wrap("multigoal.pipeline:plan_leg_rrt", "planner.rrt", on_return=_plan_samples, on_raise=_planner_failed),
    Wrap(
        "multigoal.pipeline:plan_leg_rrt_star",
        "planner.rrt_star",
        on_return=_plan_samples,
        on_raise=_planner_failed,
    ),
    Wrap("multigoal.planner:Tree.nearest", "planner.tree.nearest", leaf=True),
    Wrap("multigoal.planner:Tree.near", "planner.tree.near", leaf=True),
    Wrap("multigoal.planner:Tree.add", "planner.tree.add", leaf=True),
    Wrap(
        "multigoal.grid:GridMap.segment_clear",
        "grid.segment_clear",
        leaf=True,
        on_return=_count("grid.segment_clear.clear", lambda result: 1 if result else 0),
    ),
    Wrap("multigoal.dataset:generate_map", "grid.generate_map"),
    Wrap("multigoal.dataset:place_goals", "grid.place_goals"),
    Wrap("multigoal.dataset:save_map", "grid.map_io"),
    Wrap("multigoal.dataset:load_map", "grid.map_io"),
    Wrap("multigoal.dataset:save_goals", "grid.map_io"),
    Wrap("multigoal.dataset:load_goals", "grid.map_io"),
    Wrap("multigoal.dataset:write_pgm", "pgm.io"),
    Wrap("multigoal.dataset:read_pgm", "pgm.io"),
    Wrap("multigoal.dataset:generate_dataset", "dataset.generate"),
    Wrap("multigoal.dataset:validate_dataset", "dataset.validate"),
)


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: value per traced instance unless the unit says otherwise."""

    name: str
    unit: str
    layers: tuple[str, ...]  # its value is missing when any wrap of these layers is missing
    value: Callable  # (tracer, traced instances, workload counters) -> float
    moves: tuple[str, ...]  # "end-to-end metric @ workload" it is expected to move


def _calls(layer):
    return lambda t, n, c: t.calls[layer] / n


def _time(layer):
    return lambda t, n, c: t.total_s[layer] / n


def _self(layer):
    return lambda t, n, c: t.self_s[layer] / n


def _counter(name):
    return lambda t, n, c: t.counts[name] / n


THROUGHPUT = ("instance_s.p50", "instances_per_s")


def _moves(metrics, *workloads):
    return tuple(f"{m} @ {w}" for w in workloads for m in metrics)


PER_LAYER = (
    LayerMetric("estimators.search.calls", "count/instance", ("estimators.search",),
                _calls("estimators.search"), _moves(THROUGHPUT, "oracle-guided", "dataset")),
    LayerMetric("estimators.search.s", "s/instance", ("estimators.search",),
                _time("estimators.search"), _moves(THROUGHPUT, "oracle-guided", "dataset")),
    LayerMetric("estimators.search.path_cells", "count/instance", ("estimators.search",),
                _counter("estimators.search.path_cells"),
                _moves(THROUGHPUT, "oracle-guided", "dataset")),
    LayerMetric("estimators.dilate.s", "s/instance", ("estimators.dilate",),
                _time("estimators.dilate"), _moves(THROUGHPUT, "oracle-guided")),
    LayerMetric("estimators.build.self_s", "s/instance", ("estimators.build",),
                _self("estimators.build"),
                _moves(THROUGHPUT + ("peak_rss_mb",), "many-goals")),
    LayerMetric("tsp.held_karp.s", "s/instance", ("tsp.held_karp",),
                _time("tsp.held_karp"), _moves(THROUGHPUT, "oracle-guided")),
    LayerMetric("tsp.local_search.s", "s/instance", ("tsp.local_search",),
                _time("tsp.local_search"), _moves(THROUGHPUT, "many-goals")),
    LayerMetric("tsp.exact.calls", "count/instance", ("tsp",), _counter("tsp.exact"),
                _moves(("cost.mean",), "oracle-guided", "rrt-star")),
    LayerMetric("tsp.heuristic.calls", "count/instance", ("tsp",), _counter("tsp.heuristic"),
                _moves(("cost.mean",), "many-goals")),
    LayerMetric("planner.rrt_star.calls", "count/instance", ("planner.rrt_star",),
                _calls("planner.rrt_star"), _moves(THROUGHPUT, "rrt-star")),
    LayerMetric("planner.rrt_star.s", "s/instance", ("planner.rrt_star",),
                _time("planner.rrt_star"), _moves(THROUGHPUT, "rrt-star")),
    LayerMetric("planner.tree.near.calls", "count/instance", ("planner.tree.near",),
                _calls("planner.tree.near"), _moves(THROUGHPUT, "rrt-star")),
    LayerMetric("planner.tree.near.s", "s/instance", ("planner.tree.near",),
                _time("planner.tree.near"), _moves(THROUGHPUT, "rrt-star")),
    LayerMetric("planner.rrt.calls", "count/instance", ("planner.rrt",),
                _calls("planner.rrt"), _moves(THROUGHPUT, "many-goals", "oracle-guided")),
    LayerMetric("planner.rrt.s", "s/instance", ("planner.rrt",),
                _time("planner.rrt"), _moves(THROUGHPUT, "many-goals", "oracle-guided")),
    LayerMetric("planner.tree.nearest.calls", "count/instance", ("planner.tree.nearest",),
                _calls("planner.tree.nearest"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("planner.tree.nearest.s", "s/instance", ("planner.tree.nearest",),
                _time("planner.tree.nearest"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("planner.tree.add.calls", "count/instance", ("planner.tree.add",),
                _calls("planner.tree.add"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("planner.samples", "count/instance", ("planner.rrt", "planner.rrt_star"),
                _counter("planner.samples"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("planner.failures", "count/instance", ("planner.rrt", "planner.rrt_star"),
                _counter("planner.failures"), _moves(("instances_per_s",), "rrt-star", "many-goals")),
    LayerMetric("planner.nodes_per_sample", "ratio", ("planner.tree.add", "planner.rrt", "planner.rrt_star"),
                lambda t, n, c: _ratio(t.calls["planner.tree.add"], t.counts["planner.samples"]),
                _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("grid.segment_clear.calls", "count/instance", ("grid.segment_clear",),
                _calls("grid.segment_clear"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("grid.segment_clear.s", "s/instance", ("grid.segment_clear",),
                _time("grid.segment_clear"), _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("grid.segment_clear.clear_ratio", "ratio", ("grid.segment_clear",),
                lambda t, n, c: _ratio(t.counts["grid.segment_clear.clear"], t.calls["grid.segment_clear"]),
                _moves(THROUGHPUT, "rrt-star", "many-goals")),
    LayerMetric("grid.generate_map.s", "s/instance", ("grid.generate_map",),
                _time("grid.generate_map"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("grid.place_goals.s", "s/instance", ("grid.place_goals",),
                _time("grid.place_goals"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("grid.map_io.s", "s/instance", ("grid.map_io",),
                _time("grid.map_io"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("pgm.io.s", "s/instance", ("pgm.io",), _time("pgm.io"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("dataset.generate.self_s", "s/instance", ("dataset.generate",),
                _self("dataset.generate"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("dataset.validate.self_s", "s/instance", ("dataset.validate",),
                _self("dataset.validate"), _moves(THROUGHPUT, "dataset")),
    LayerMetric("dataset.bytes_written", "B/instance", (),
                lambda t, n, c: c["dataset.bytes_written"] / n, _moves(THROUGHPUT, "dataset")),
    LayerMetric("dataset.map_attempts_per_sample", "ratio", ("grid.generate_map",),
                lambda t, n, c: _ratio(t.calls["grid.generate_map"], c["dataset.samples"]),
                _moves(THROUGHPUT, "dataset")),
    LayerMetric("pipeline.self_s", "s/instance", ("pipeline",), _self("pipeline"),
                _moves(THROUGHPUT, "oracle-guided", "rrt-star", "many-goals")),
)


def missing_layers(tracer: Tracer) -> set[str]:
    """Layers with at least one wrapped name that no longer exists in the package."""
    gone = set(tracer.missing)
    return {w.layer for w in tracer.wraps if w.target in gone}


def layer_metrics(tracer: Tracer, traced: int, counters) -> dict:
    """Every per-layer metric as {"value", "unit"}; a missing one has value None."""
    missing = missing_layers(tracer)
    out = {}
    for m in PER_LAYER:
        if missing.intersection(m.layers):
            out[m.name] = {"value": None, "unit": m.unit, "missing": True}
        else:
            out[m.name] = {"value": m.value(tracer, max(traced, 1), counters), "unit": m.unit}
    return out
