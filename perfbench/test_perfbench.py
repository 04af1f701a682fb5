"""Tests of the benchmark itself, on instances much smaller than the real workloads."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import types
from collections import Counter

import numpy as np
import pytest

import multigoal as mg
from perfbench import ROOT, harness, layers, run, speed, workloads
from perfbench.tracer import Tracer, Wrap, resolve


def tiny(name, workdir):
    w = workloads.all_workloads(str(workdir))[name]
    if name == "dataset":
        return dataclasses.replace(w, n=2, instances=2)
    return dataclasses.replace(w, goals=5, instances=2)


def tiny_run(name, workdir, seed=3, tracer=None):
    w = tiny(name, workdir)
    instances, _ = harness.set_up(w, seed)
    return w, harness.measure(w, instances, 0.0, tracer)


@pytest.mark.parametrize("name", ["oracle-guided", "rrt-star", "many-goals", "dataset"])
def test_instance_generation_is_deterministic_per_seed(name, tmp_path):
    w = workloads.all_workloads(str(tmp_path))[name]
    a, b, other = w.generate(7, 0), w.generate(7, 0), w.generate(8, 0)
    if name == "dataset":
        assert a == b and a != other
        return
    assert np.array_equal(a.cells, b.cells) and a.goals == b.goals and a.planner_seed == b.planner_seed
    assert a.goals != other.goals


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(Tracer, "install", refuse)
    before = {w.target: getattr(*resolve(w.target)) for w in layers.WRAPS}
    for name in ("many-goals", "dataset"):
        tiny_run(name, tmp_path)
    assert before == {w.target: getattr(*resolve(w.target)) for w in layers.WRAPS}


def test_traced_run_restores_every_wrapper(tmp_path):
    before = {w.target: getattr(*resolve(w.target)) for w in layers.WRAPS}
    tracer = Tracer(layers.WRAPS)
    for name in ("many-goals", "dataset"):
        tiny_run(name, tmp_path, tracer=tracer)
    after = {w.target: getattr(*resolve(w.target)) for w in layers.WRAPS}
    assert all(after[t] is before[t] for t in before)
    assert not tracer.installed and tracer.missing == []
    for layer in ("pipeline", "planner.rrt", "planner.tree.nearest", "grid.segment_clear",
                  "dataset.generate", "estimators.search", "pgm.io"):
        assert tracer.calls[layer] > 0, layer
    parents = {s[3] for s in tracer.spans}
    assert -1 in parents and len(parents) > 1  # spans nest under their callers


def test_missing_name_is_reported_missing_not_zero():
    gone = Wrap("multigoal.planner:Tree.no_such_method", "planner.tree.near", leaf=True)
    tracer = Tracer(layers.WRAPS + (gone,))
    assert tracer.missing == ["multigoal.planner:Tree.no_such_method"]
    metrics = layers.layer_metrics(tracer, 1, Counter())
    assert metrics["planner.tree.near.calls"] == {"value": None, "unit": "count/instance", "missing": True}
    assert metrics["planner.tree.nearest.calls"]["value"] == 0.0


@pytest.mark.parametrize("name", ["many-goals", "dataset"])
def test_two_tiny_runs_give_equal_digests(name, tmp_path):
    w, first = tiny_run(name, tmp_path)
    _, second = tiny_run(name, tmp_path)
    _, other_seed = tiny_run(name, tmp_path, seed=4)
    assert harness.digest(first) == harness.digest(second)
    assert harness.digest(first) != harness.digest(other_seed)


def test_wrong_output_is_caught(tmp_path):
    w = tiny("many-goals", tmp_path)
    grid, goals, cfg = w.prepare(w.generate(3, 0))
    sol = w.execute((grid, goals, cfg))
    workloads.check_solution(grid, goals, cfg.goal_tolerance, sol)
    fields = dict(tour=sol.tour, legs=sol.legs, total_cost=sol.total_cost)
    with pytest.raises(workloads.WrongOutput, match="total_cost"):
        workloads.check_solution(grid, goals, cfg.goal_tolerance,
                                 types.SimpleNamespace(**{**fields, "total_cost": sol.total_cost + 1e-3}))
    with pytest.raises(workloads.WrongOutput, match="chain"):
        legs = (sol.legs[0],) + sol.legs[2:] + (sol.legs[1],)
        workloads.check_solution(grid, goals, cfg.goal_tolerance,
                                 types.SimpleNamespace(**{**fields, "legs": legs}))
    blocked = np.ones_like(grid.cells)
    blocked[0, 0] = False  # a map needs one free cell
    walled = mg.GridMap(blocked)
    with pytest.raises(workloads.WrongOutput, match="obstacle"):
        workloads.check_solution(walled, goals, cfg.goal_tolerance, sol)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key, tmp_path, monkeypatch, capsys):
    small = tiny("dataset", tmp_path)
    registry = list(workloads.all_workloads(str(tmp_path)))
    monkeypatch.setattr("perfbench.OUT", str(tmp_path))
    monkeypatch.setattr(workloads, "all_workloads",
                        lambda workdir: {"dataset": dataclasses.replace(small, workdir=workdir)})
    assert run.main(["--workload", "dataset", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[key])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == registry


def test_more_seconds_add_passes_over_the_same_instances(tmp_path, monkeypatch):
    real = harness.run_checked
    # every instance reads 1 s, so the pass count does not depend on the host's speed
    monkeypatch.setattr(harness, "run_checked", lambda *a, **k: (1.0, real(*a, **k)[1]))
    w, once = tiny_run("dataset", tmp_path)
    instances, _ = harness.set_up(w, 3)
    twice = harness.measure(w, instances, 1.5 * sum(map(sum, once.times)))
    assert once.passes == 1 and twice.passes == 2
    assert len(twice.instance_times()) == len(once.instance_times()) == w.instances
    assert harness.digest(twice) == harness.digest(once)


def test_scaled_time_is_wall_time_at_the_reference_speed():
    assert speed.scale(2.0, speed.REFERENCE_S, speed.REFERENCE_S) == 2.0
    assert speed.scale(2.0, 2 * speed.REFERENCE_S) == 1.0  # on a host twice as slow


@pytest.mark.parametrize("enabled", [True, False])
def test_calibration_leaves_the_collector_as_it_was(enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert speed.calibrate() > 0
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
