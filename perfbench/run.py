"""Run one benchmark workload and print its metrics; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics and the tracing overhead. A wrong output exits with
code 1, a checkout without ``src/multigoal`` with code 2.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

if not __package__:
    # run as a script: import ``perfbench`` as a package from the checkout root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import perfbench  # noqa: E402

WORKLOADS = ("oracle-guided", "rrt-star", "many-goals", "dataset")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    perfbench.pin_threads()
    try:
        perfbench.use_checkout_source()
    except perfbench.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import multigoal  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - _START
    from perfbench import harness, speed, workloads

    import_s = speed.scale(import_s, speed.calibrate())
    from perfbench.layers import PER_LAYER, WRAPS
    from perfbench.tracer import Tracer

    os.makedirs(perfbench.OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(perfbench.OUT, f"work-{os.getpid()}")
    workload = workloads.all_workloads(workdir)[args.workload]
    env = harness.environment(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        setups = []
        for _ in range(harness.SETUP_REPEATS):
            instances, seconds = harness.set_up(workload, args.seed)
            setups.append(seconds)
        tracer = Tracer(WRAPS) if args.trace else None
        measured = harness.measure(workload, instances, args.seconds, tracer)
    except workloads.WrongOutput as exc:
        print(f"perfbench: wrong output on {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = harness.end_to_end(measured, import_s + statistics.median(setups))
    else:
        metrics = harness.per_layer(tracer, measured)
        tracer.write_jsonl(os.path.join(perfbench.OUT, f"trace-{tag}.jsonl"), env)
    _, tail_pct, count = harness.tail(measured.instance_times())
    unsolved = sum(not c.solved for c in measured.checked)
    attempted = count * measured.passes
    failed = unsolved * measured.passes  # a later pass reproduces every output
    report = {
        "environment": env,
        "digest": harness.digest(measured),
        "tail_percentile": tail_pct,
        "instances": count,
        "passes": measured.passes,
        "instance_times_s": measured.times,
        "scaled_instance_times_s": measured.scaled,
        "calibrations_s": measured.calibrations,
        "failure_rate": unsolved / count,
        "import_s": import_s,
        "setup_runs_s": setups,
        "missing": tracer.missing if tracer else [],
        "moves": {m.name: m.moves for m in PER_LAYER} if tracer else {},
        "metrics": metrics,
    }
    with open(os.path.join(perfbench.OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"digest {report['digest']} over {count} instances")
    print(f"reference kernel median {statistics.median(measured.calibrations):.6f} s, "
          f"scaled to {speed.REFERENCE_S} s")
    print(f"instances {count}, passes {measured.passes}, failure_rate {report['failure_rate']!r}"
          + ("" if tracer else f", instance_s.tail at p{tail_pct:.1f} of {count}"))
    for name in report["missing"]:
        print(f"missing {name}")
    for name, m in metrics.items():
        value = "missing" if m.get("missing") else repr(m["value"])
        print(f"metric {name} = {value} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
