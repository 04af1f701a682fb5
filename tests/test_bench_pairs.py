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
        assert {"metrics", "attempted", "failed", "digest", "wall_s"} <= set(run)
        assert run["failed"] == 0 and run["metrics"]["instances_per_s"] > 0
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
        "parent": {"failed": 0, "attempted": pair["parent"]["attempted"]},
        "change": {"failed": 0, "attempted": pair["change"]["attempted"]},
        "more_failed": False,
    }
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


def test_the_pooled_failed_share_can_rise_when_every_pair_is_equal():
    # 1/32 = 2/64 and 0/64 vs 0/32 pair by pair, but pooled 2/96 (change) > 1/96 (parent)
    tool = load_tool()
    pairs = [failing_pair((1, 2), (32, 64)), failing_pair((0, 0), (64, 32))]
    assert tool.mismatches("rrt-star", pairs) == []
    assert tool.pooled_failures(pairs) == {
        "parent": {"failed": 1, "attempted": 96},
        "change": {"failed": 2, "attempted": 96},
        "more_failed": True,
    }
    # the same pairs with the sides swapped: the change's pooled share is the lower
    swapped = [{**p, "parent": p["change"], "change": p["parent"]} for p in pairs]
    assert tool.pooled_failures(swapped)["more_failed"] is False
    # equal pooled shares are not more
    assert tool.pooled_failures([failing_pair((2, 3), (64, 96))])["more_failed"] is False
