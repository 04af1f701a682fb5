"""tools/bench_pairs.py: alternating perfbench pairs of two trees, one dataset pair each."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_tree(dest):
    """The parts of this checkout that perfbench runs from."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    return dest


def bench_pairs(parent, out):
    cmd = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(parent),
           "--out", str(out), "--workloads", "dataset", "--seeds", "1", "--seconds", "0.05"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def test_a_tree_against_itself(tmp_path):
    out = tmp_path / "pairs.json"
    proc = bench_pairs(copy_tree(tmp_path / "parent"), out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert list(report) == ["trees", "seeds", "seconds", "pairs", "summary", "failures", "mismatches"]
    for side in ("parent", "change"):
        assert {"source", "revision", "dirty", "python", "numpy", "nproc"} <= set(report["trees"][side])
    assert report["seeds"] == [1] and report["seconds"] == 0.05
    (pair,) = report["pairs"]["dataset"]
    assert pair["seed"] == 1 and pair["order"] == ["parent", "change"]
    for side in ("parent", "change"):
        run = pair[side]
        assert {"metrics", "attempted", "failed", "passes", "digest", "wall_s"} <= set(run)
        assert run["failed"] == 0 and run["metrics"]["instances_per_s"] > 0
        assert run["passes"] >= 1 and run["attempted"] % run["passes"] == 0
    assert pair["parent"]["digest"] == pair["change"]["digest"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = report["summary"]["dataset"]
    assert list(summary) == [m["name"] for m in spec["end_to_end"]]
    for s in summary.values():
        assert s["pairs"] == 1 and s["q1_ratio"] == s["median_ratio"] == s["q3_ratio"]
        assert s["parent"]["q1"] == s["parent"]["median"] == s["parent"]["q3"]
        assert s["change"]["median"] == pytest.approx(s["median_ratio"] * s["parent"]["median"])
        assert isinstance(s["gain"], bool)
        assert isinstance(s["worse"], bool) and isinstance(s["unresolved"], bool)
    assert [s["bound"] for s in summary.values()] == [m["bound"] for m in spec["end_to_end"]]
    assert summary["cost.mean"]["median_ratio"] == 1.0
    assert report["failures"]["dataset"] == {
        side: {"failed": 0, "attempted": pair[side]["attempted"], "failed_instances": 0,
               "instances": pair[side]["attempted"] // pair[side]["passes"]}
        for side in ("parent", "change")
    } | {"more_failed": False}
    assert report["mismatches"] == []
    assert "MORE_FAILED" not in proc.stdout


def test_a_parent_with_other_outputs_fails(tmp_path):
    # twice the dilation radius changes every dataset mask, so every digest
    parent = copy_tree(tmp_path / "parent")
    source = parent / "src" / "multigoal" / "estimators.py"
    text = source.read_text()
    assert text.count("/ 32.0") == 1
    source.write_text(text.replace("/ 32.0", "/ 16.0"))
    out = tmp_path / "pairs.json"
    proc = bench_pairs(parent, out)
    assert proc.returncode == 1, proc.stderr
    (line,) = json.loads(out.read_text())["mismatches"]
    assert line.startswith("dataset seed 1: digest ")
    assert f"MISMATCH {line}" in proc.stdout


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_pairs(name, parents, ratio):
    return [{"seed": k, "parent": {"metrics": {name: v}}, "change": {"metrics": {name: v * ratio}}}
            for k, v in enumerate(parents)]


@pytest.mark.parametrize("name, ratio, worse", [
    ("instances_per_s", 0.70, True),
    ("instances_per_s", 0.90, False),
    ("instances_per_s", 1.30, False),
    ("peak_rss_mb", 1.11, True),
    ("peak_rss_mb", 1.05, False),
    ("peak_rss_mb", 0.80, False),
])
def test_worse_is_the_benchmark_bound(name, ratio, worse):
    parents = [100.0, 101.0, 99.0, 100.5, 99.5]  # a tight parent: nothing is unresolved
    s = load_tool().summarize(synthetic_pairs(name, parents, ratio), SPEC["end_to_end"])[name]
    assert s["bound"] == {m["name"]: m["bound"] for m in SPEC["end_to_end"]}[name]
    assert s["worse"] is worse
    assert s["unresolved"] is False


def test_unresolved_needs_a_wide_parent_and_overlapping_runs():
    tool = load_tool()
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]  # spread 0.4 > the 0.25 bound
    overlapping = tool.summarize(synthetic_pairs("instances_per_s", wide, 1.0), SPEC["end_to_end"])
    assert overlapping["instances_per_s"]["unresolved"] is True
    assert overlapping["instances_per_s"]["worse"] is False
    # every change run beats every parent run: resolved however wide the parent
    clear = tool.summarize(synthetic_pairs("instances_per_s", wide, 3.0), SPEC["end_to_end"])
    assert clear["instances_per_s"]["unresolved"] is False
    tight = tool.summarize(synthetic_pairs("instances_per_s", [100.0, 101.0, 99.0], 1.0),
                           SPEC["end_to_end"])
    assert tight["instances_per_s"]["unresolved"] is False


def failing_pair(failed, attempted):
    sides = [{"digest": "d", "metrics": {"cost.mean": 1.0}, "failed": f, "attempted": n}
             for f, n in zip(failed, attempted)]
    return {"seed": 9704, "parent": sides[0], "change": sides[1]}


def test_mismatches_compare_the_failed_share():
    # a faster side runs more passes, and perfbench counts a failure per pass
    tool = load_tool()
    assert tool.mismatches("rrt-star", [failing_pair((2, 3), (64, 96))]) == []
    assert tool.mismatches("rrt-star", [failing_pair((2, 6), (64, 96))]) == [
        "rrt-star seed 9704: failed share 2/64 (parent) != 6/96 (change)"
    ]
    assert tool.mismatches("rrt-star", [failing_pair((0, 0), (64, 96))]) == []


def run_of(unsolved, passes, instances=32):
    """A perfbench run's counts: every instance and failure counted once per pass."""
    return {"digest": "d", "metrics": {"cost.mean": 1.0}, "failed": unsolved * passes,
            "attempted": instances * passes, "passes": passes}


def pairs_of(parent, change):
    """Pairs from each side's (unsolved, passes) per seed."""
    return [{"seed": seed, "parent": run_of(*a), "change": run_of(*b)}
            for seed, (a, b) in enumerate(zip(parent, change), 1)]


def test_pooled_failures_count_instances_not_passes():
    # 1/32 = 2/64 and 0/64 vs 0/32 pair by pair: pooled raw counts 1/96 (parent)
    # and 2/96 (change), but 1 of 64 instances failed on each side
    tool = load_tool()
    pairs = pairs_of([(1, 1), (0, 2)], [(1, 2), (0, 1)])
    assert tool.mismatches("rrt-star", pairs) == []
    assert tool.pooled_failures(pairs) == {
        "parent": {"failed": 1, "attempted": 96, "failed_instances": 1, "instances": 64},
        "change": {"failed": 2, "attempted": 96, "failed_instances": 1, "instances": 64},
        "more_failed": False,
    }
    # one more failed instance on the change is more, with the sides swapped it is not
    more = pairs_of([(1, 1), (0, 2)], [(1, 2), (1, 1)])
    assert tool.pooled_failures(more)["more_failed"] is True
    swapped = [{**p, "parent": p["change"], "change": p["parent"]} for p in more]
    assert tool.pooled_failures(swapped)["more_failed"] is False


def test_the_goal_queued_rrt_star_runs_fail_on_equal_shares():
    # the rrt-star runs of BENCH_37_GOAL_QUEUED.json, which hold no passes: the
    # workload has 32 instances, so a run's passes are its attempted / 32
    report = json.loads((ROOT / "BENCH_37_GOAL_QUEUED.json").read_text())
    pairs = report["pairs"]["rrt-star"]
    for p in pairs:
        for side in ("parent", "change"):
            p[side]["passes"] = p[side]["attempted"] // 32
    assert report["failures"]["rrt-star"]["more_failed"] is True  # as the pooled counts read
    failures = load_tool().pooled_failures(pairs)
    assert failures["parent"] == {"failed": 2, "attempted": 896, "failed_instances": 1, "instances": 320}
    assert failures["change"] == {"failed": 2, "attempted": 832, "failed_instances": 1, "instances": 320}
    assert failures["more_failed"] is False


def run_main(monkeypatch, tmp_path, parent, change):
    """main on rrt-star with each side's (unsolved, passes) per seed, in place of perfbench runs."""
    tool = load_tool()
    runs = {"parent": iter(parent), "change": iter(change)}
    monkeypatch.setattr(tool, "materialize", lambda source, dest: {"source": str(source)})
    monkeypatch.setattr(tool, "run_once", lambda tree, workload, seed, seconds: (
        {**run_of(*next(runs[Path(tree).name])), "wall_s": 0.0}, {}))
    out = tmp_path / "pairs.json"
    code = tool.main(["--parent", "HEAD", "--out", str(out), "--workloads", "rrt-star",
                      "--seeds", f"1-{len(parent)}", "--seconds", "1"])
    return code, json.loads(out.read_text())


def test_equal_per_pair_shares_print_no_more_failed(monkeypatch, tmp_path, capsys):
    code, report = run_main(monkeypatch, tmp_path, [(1, 1), (0, 2)], [(1, 2), (0, 1)])
    assert code == 0 and report["failures"]["rrt-star"]["more_failed"] is False
    assert "MORE_FAILED" not in capsys.readouterr().out


def test_one_more_failed_instance_prints_more_failed(monkeypatch, tmp_path, capsys):
    code, report = run_main(monkeypatch, tmp_path, [(1, 1), (0, 2)], [(1, 2), (1, 1)])
    assert code == 1 and report["failures"]["rrt-star"]["more_failed"] is True
    assert "MORE_FAILED rrt-star: failed instances 2/64 (change) > 1/64 (parent)\n" in capsys.readouterr().out
