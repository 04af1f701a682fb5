"""tools/bench_pairs.py: alternating perfbench pairs of two trees, one dataset pair each."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    assert list(report) == ["trees", "seeds", "seconds", "pairs", "summary", "mismatches"]
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
    assert summary["cost.mean"]["median_ratio"] == 1.0
    assert report["mismatches"] == []


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
