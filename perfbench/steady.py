"""Steadiness check: repeat runs of each workload and report every metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds tuning|held-out|rerun|1,2,3]
                                [--seconds S] [--trace 0|1]

Runs ``run.py`` once per workload and seed, one process at a time, and prints
each metric's median, first and third quartile (``statistics.quantiles`` with
n=4) and spread, (q3 - q1) / median, beside the metric's bound from
BENCHMARK.json. Exits 1 when a run fails or an end-to-end spread exceeds its
bound.

Seeds 1-10 are the tuning seeds, used while a change is written. Seeds
1001-1010 are held out: a claimed gain must also hold on them. Across ten
seeds a spread holds both run-to-run noise and the difference between the
seeds' instance sets; ``rerun`` runs seed 1 five times, so its spread is the
run-to-run noise alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

if not __package__:
    # run as a script: import ``perfbench`` as a package from the checkout root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import OUT, ROOT  # noqa: E402

SEEDS = {"tuning": list(range(1, 11)), "held-out": list(range(1001, 1011)), "rerun": [1] * 5}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="tuning")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seeds = SEEDS.get(args.seeds) or [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            t0 = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault(name, []).append(metric["value"])
        summary = {name: {**summarize(v), "values": v} for name, v in values.items()}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and s["spread"] is not None:
                within = s["spread"] <= bound
                flag = f"bound {bound}: {'ok' if within else 'EXCEEDED'}"
                ok = ok and within
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {spread}  {flag}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
