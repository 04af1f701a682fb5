"""Set-up, the timed closed loop, and the metrics of one run.

Only the package call of each instance is timed. Building the fresh input
objects, checking the output and removing written files happen outside the
timed region, so a change in the package's speed is all the metrics see.
The time metrics are scaled to a fixed host speed (``speed.py``): each
instance's and each set-up's wall time is scaled by the reference kernel's
times just before and just after it. Between instances the kernel runs once
per half second of timed work, so short instances share a calibration.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy
import scipy

from . import ROOT, THREAD_VARS, speed
from .layers import layer_metrics
from .tracer import Tracer
from .workloads import Checked, WrongOutput

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# The reference kernel runs after each stretch of at least this much timed work, and at each pass's end.
CALIBRATE_EVERY_S = 0.5
# The warm-up instance comes from this fixed seed, so every seed's set-up runs the same one.
WARMUP_SEED = 0


@dataclass
class Measured:
    times: list[list[float]]  # untraced wall time of each instance, one entry per pass
    scaled: list[list[float]]  # the same times scaled to the reference host speed
    calibrations: list[float] = field(default_factory=list)  # reference kernel times, in run order
    checked: list[Checked] = field(default_factory=list)  # first pass; later passes must match
    traced_times: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)  # from traced instances' outputs

    @property
    def passes(self) -> int:
        return len(self.times[0])

    def instance_times(self) -> list[float]:
        """Each instance's median time over the passes, in instance order."""
        return [statistics.median(t) for t in self.scaled]


def run_checked(workload, inst, tracer: Tracer | None = None) -> tuple[float, Checked]:
    """Run one instance (traced when a tracer is given), check it, clean up."""
    prepared = workload.prepare(inst)
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = workload.execute(prepared)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        return elapsed, workload.check(inst, prepared, out)
    finally:
        workload.cleanup(prepared)


def set_up(workload, seed: int) -> tuple[list, float]:
    """Generate the fixed instance set and run one checked warm-up instance outside it.

    Returns the instances and the set-up's time scaled to the reference host speed.
    """
    before = speed.calibrate()
    t0 = time.perf_counter()
    instances = [workload.generate(seed, i) for i in range(workload.instances)]
    run_checked(workload, workload.generate(WARMUP_SEED, workload.instances))
    return instances, speed.scale(time.perf_counter() - t0, before, speed.calibrate())


def measure(workload, instances, seconds: float, tracer: Tracer | None = None) -> Measured:
    """Closed loop of whole passes over the fixed instance set, until ``seconds`` of timed work.

    Every pass runs every instance once, so the instances a run measures never
    depend on the package's speed; ``seconds`` only adds passes. A later pass
    must reproduce the first pass's outputs. With a tracer, each instance runs
    untraced and then traced, so both sides of the tracing overhead see the
    same inputs; the two outputs must agree.
    """
    m = Measured(times=[[] for _ in instances], scaled=[[] for _ in instances])
    m.calibrations.append(speed.calibrate())
    pending: list[tuple[int, float]] = []  # untraced (instance, seconds) since the last calibration
    elapsed = 0.0
    while not m.checked or elapsed < seconds:
        first = not m.checked
        for k, inst in enumerate(instances):
            dt, checked = run_checked(workload, inst)
            elapsed += dt
            m.times[k].append(dt)
            pending.append((k, dt))
            if sum(t for _, t in pending) >= CALIBRATE_EVERY_S or k == len(instances) - 1:
                m.calibrations.append(speed.calibrate())
                for j, t in pending:
                    m.scaled[j].append(speed.scale(t, *m.calibrations[-2:]))
                pending.clear()
            if first:
                m.checked.append(checked)
            elif checked.digest_line != m.checked[k].digest_line:
                raise WrongOutput(f"a repeated instance changed its output: "
                                  f"{checked.digest_line} != {m.checked[k].digest_line}")
            if tracer is not None:
                tracer.instance = k
                dt_traced, traced = run_checked(workload, inst, tracer)
                if traced.digest_line != checked.digest_line:
                    raise WrongOutput(f"tracing changed the output: {traced.digest_line} != {checked.digest_line}")
                elapsed += dt_traced
                m.traced_times.append(dt_traced)
                m.counters["dataset.samples"] += traced.samples
                m.counters["dataset.bytes_written"] += traced.bytes_written
    return m


def digest(m: Measured) -> str:
    """sha256 over order, cost and samples of every instance of the set."""
    lines = "\n".join(c.digest_line for c in m.checked)
    return hashlib.sha256(lines.encode()).hexdigest()


def tail(times) -> tuple[float, float, int]:
    """(seconds, percentile, count) at the highest percentile with ten instances beyond it."""
    s = sorted(times)
    j = max(len(s) - 1 - TAIL_BEYOND, 0)
    return s[j], 100.0 * (j + 1) / len(s), len(s)


def end_to_end(m: Measured, setup_s: float) -> dict:
    times = m.instance_times()
    solved = sum(c.solved for c in m.checked)
    costs = [c.cost for c in m.checked if c.solved]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    values = {
        "instances_per_s": (solved / sum(times), "1/s"),
        "instance_s.p50": (statistics.median(times), "s"),
        "instance_s.tail": (tail(times)[0], "s"),
        "cost.mean": (statistics.fmean(costs) if costs else None, "cells"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(tracer: Tracer, m: Measured) -> dict:
    """Per-layer metrics; their times are scaled by the run's median reference kernel time."""
    metrics = layer_metrics(tracer, len(m.traced_times), m.counters)
    factor = speed.scale(1.0, statistics.median(m.calibrations))
    for metric in metrics.values():
        if metric["unit"] == "s/instance" and metric["value"] is not None:
            metric["value"] *= factor
    overhead = 100.0 * (sum(m.traced_times) / sum(map(sum, m.times)) - 1.0)
    metrics["trace.overhead"] = {"value": overhead, "unit": "%"}
    return metrics


def git_revision() -> str | None:
    """HEAD of the checkout, or None where the checkout is no git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # else git would report an enclosing repository's HEAD
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
