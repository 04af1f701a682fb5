"""Alternating pairs of perfbench runs, a parent tree against this checkout, in one JSON file.

    python3 tools/bench_pairs.py --parent REV|DIR --out BENCH_<n>.json
                                 [--workloads a,b] [--seeds 9801-9810|1,1001,1005]
                                 [--seconds S]

The parent is a git revision of this checkout or a directory; the change is
this checkout. Both are copied into one temporary directory (``src``,
``perfbench`` and ``BENCHMARK.json``; a revision through ``git archive``), so
that both import from the same file system at the same depth. For each
workload and seed, ``perfbench/run.py --trace 0`` runs once in each copy, one
process at a time: the parent first on a workload's first, third, ... pair,
the change first on the others.

The output file holds each tree's revision, Python, numpy and CPU count; the
seeds, the run order and the seconds; every run's metrics, ``failed`` count
and digest; and, per workload and end-to-end metric of BENCHMARK.json, each side's
median and quartiles, the change/parent ratios (their median and quartiles),
the number of pairs on which the change was better, the parent's own spread,
(q3 - q1) / median of its values, and ``gain``: whether the change was better
in at least nine tenths of the pairs and its median beats the parent's by more
than the parent's quartiles lie apart. "No regression" is stated in the
benchmark's own terms: ``bound`` is the metric's bound in BENCHMARK.json,
``worse`` says the change's median is worse than the parent's by more than
bound x the parent's median, and ``unresolved`` says the parent's spread
exceeds the bound while not every change run beats every parent run. Each
worse or unresolved metric gets a WORSE or UNRESOLVED line on stdout.

Exits 1 when a pair differs in digest, ``cost.mean`` or the failed share,
``failed / attempted`` (the file is still written), and 2 when a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE = ("src", "perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "a-b" ranges and single seeds, comma-separated."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(directory: str, *args: str) -> str | None:
    """git's output in a checkout, or None where directory holds no repository."""
    if not os.path.exists(os.path.join(directory, ".git")):
        return None  # else git would answer for an enclosing repository
    proc = subprocess.run(["git", *args], cwd=directory, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def materialize(source: str, dest: str) -> dict:
    """Copy a directory, or extract a revision of this checkout, to dest; return its revision."""
    if os.path.isdir(source):
        for name in TREE:
            path = os.path.join(source, name)
            if os.path.isdir(path):
                shutil.copytree(path, os.path.join(dest, name),
                                ignore=shutil.ignore_patterns("out", "__pycache__"))
            else:
                shutil.copy2(path, dest)
        status = git(source, "status", "--porcelain")
        return {"source": os.path.relpath(source, ROOT), "revision": git(source, "rev-parse", "HEAD"),
                "dirty": None if status is None else bool(status)}
    revision = git(ROOT, "rev-parse", "--verify", f"{source}^{{commit}}")
    if revision is None:
        raise SystemExit(f"bench_pairs: {source} is neither a directory nor a revision")
    archive = subprocess.run(["git", "archive", "--format=tar", revision, "--", *TREE],
                             cwd=ROOT, capture_output=True, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return {"source": source, "revision": revision, "dirty": False}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run's record, and the Python, numpy and CPU count it ran with."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        raise SystemExit(2)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as f:
        report = json.load(f)
    run = {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": report["digest"],
        "wall_s": wall,
    }
    return run, {key: report["environment"][key] for key in ("python", "numpy", "nproc")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: each side's median and quartiles,
    the change/parent ratios, whether the change wins (better in at least nine
    tenths of the pairs, by more in the medians than the parent's quartiles lie
    apart), and whether it is worse than the metric's bound allows or its
    parent too spread to tell."""
    summary = {}
    for metric in end_to_end:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None and a > 0]
        if not both:
            continue
        ratios = [b / a for a, b in both]
        sides = {side: quartiles([pair[k] for pair in both]) for k, side in enumerate(SIDES)}
        wins = sum(r > 1 if direction == "higher" else r < 1 for r in ratios)
        (p1, pmedian, p3), (_, cmedian, _) = sides["parent"], sides["change"]
        gain = cmedian - pmedian if direction == "higher" else pmedian - cmedian
        parents, changes = [a for a, _ in both], [b for _, b in both]
        if direction == "higher":
            beats_all = min(changes) > max(parents)
        else:
            beats_all = max(changes) < min(parents)
        spread = (p3 - p1) / pmedian
        q1, median, q3 = quartiles(ratios)
        summary[name] = {
            "better": direction,
            **{side: dict(zip(("q1", "median", "q3"), q)) for side, q in sides.items()},
            "median_ratio": median,
            "q1_ratio": q1,
            "q3_ratio": q3,
            "pairs": len(ratios),
            "better_pairs": wins,
            "parent_spread": spread,
            "gain": wins >= 0.9 * len(ratios) and gain > p3 - p1,
            "bound": bound,
            "worse": -gain > bound * pmedian,
            "unresolved": spread > bound and not beats_all,
            "ratios": ratios,
        }
    return summary


def mismatches(workload: str, pairs: list[dict]) -> list[str]:
    """The pairs whose sides differ in digest, cost.mean or failed share.

    perfbench counts a failure once per pass, and a faster tree runs more
    passes, so the shares failed / attempted are compared, cross-multiplied.
    """
    found = []
    for p in pairs:
        parent, change = p["parent"], p["change"]
        for what, a, b in (("digest", parent["digest"], change["digest"]),
                           ("cost.mean", parent["metrics"].get("cost.mean"),
                            change["metrics"].get("cost.mean"))):
            if a != b:
                found.append(f"{workload} seed {p['seed']}: {what} {a!r} (parent) != {b!r} (change)")
        if parent["failed"] * change["attempted"] != change["failed"] * parent["attempted"]:
            found.append(f"{workload} seed {p['seed']}: failed share "
                         f"{parent['failed']}/{parent['attempted']} (parent) != "
                         f"{change['failed']}/{change['attempted']} (change)")
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="a git revision of this checkout, or a directory")
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--workloads", help="comma-separated (default: every BENCHMARK.json workload)")
    p.add_argument("--seeds", default="1", help='"a-b" ranges and seeds, comma-separated')
    p.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json run_seconds)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: os.path.join(work, side) for side in SIDES}
        revisions = {"parent": materialize(args.parent, trees["parent"]),
                     "change": materialize(ROOT, trees["change"])}
        runs: dict[str, list[dict]] = {}
        for workload in workloads:
            runs[workload] = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side], environment = run_once(trees[side], workload, seed, seconds)
                    revisions[side].update(environment)
                    print(f"{workload} seed {seed} {side}: {pair[side]['wall_s']:.1f} s wall, "
                          f"instances_per_s {pair[side]['metrics'].get('instances_per_s')!r}, "
                          f"failed {pair[side]['failed']}", flush=True)
                runs[workload].append(pair)

    found = [line for workload, pairs in runs.items() for line in mismatches(workload, pairs)]
    report = {
        "trees": revisions,
        "seeds": seeds,
        "seconds": seconds,
        "pairs": runs,
        "summary": {workload: summarize(pairs, spec["end_to_end"]) for workload, pairs in runs.items()},
        "mismatches": found,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for workload, summary in report["summary"].items():
        for name, s in summary.items():
            print(f"{workload} {name}: median change/parent {s['median_ratio']:.4f} "
                  f"(q1 {s['q1_ratio']:.4f}, q3 {s['q3_ratio']:.4f}), better in "
                  f"{s['better_pairs']}/{s['pairs']}, parent spread {s['parent_spread']:.4f}"
                  + (", a gain" if s["gain"] else ""))
    for workload, summary in report["summary"].items():
        for name, s in summary.items():
            if s["worse"]:
                print(f"WORSE {workload} {name}: change median {s['change']['median']!r} vs parent "
                      f"{s['parent']['median']!r}, beyond the {s['bound']} bound ({s['better']} is better)")
            if s["unresolved"]:
                print(f"UNRESOLVED {workload} {name}: parent spread {s['parent_spread']:.4f} exceeds "
                      f"the {s['bound']} bound and not every change run beats every parent run")
    for line in found:
        print(f"MISMATCH {line}")
    print(f"wrote {args.out}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
