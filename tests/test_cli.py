import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigoal
from multigoal import ALGORITHMS, GridMap, save_goals, save_map, GoalSet, Point
from multigoal.cli import main
from multigoal.grid import MAX_CELLS, load_map
from multigoal.pgm import read_pgm, write_pgm
from multigoal.planner import MAX_SAMPLES
from test_public_api import SUBCOMMAND_OPTIONS


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def small_world(tmp_path):
    """A 24x24 map with a wall gap and 4 goals, saved to disk."""
    cells = np.zeros((24, 24), dtype=bool)
    cells[4:20, 11:13] = True
    grid = GridMap(cells)
    goals = GoalSet([Point(2.5, 2.5), Point(20.5, 3.5), Point(20.5, 20.5), Point(3.5, 20.5)])
    map_path = tmp_path / "world.map"
    goals_path = tmp_path / "goals.csv"
    save_map(map_path, grid)
    save_goals(goals_path, goals)
    return map_path, goals_path


class TestGenMap:
    def test_writes_map_and_goals(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        code = run(
            ["gen-map", "--seed", 3, "--width", 32, "--height", 32, "--out", out,
             "--goals", 4, "--min-sep", 5]
        )
        assert code == 0
        grid = load_map(out)
        assert grid.width == 32
        assert (tmp_path / "m.goals.csv").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.map", tmp_path / "b.map"
        run(["gen-map", "--seed", 5, "--out", a])
        run(["gen-map", "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        assert run(["gen-map", "--seed", -1, "--out", out]) == 1
        assert "seed must be an unsigned 64-bit integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestGenDataset:
    def test_zero_samples(self, tmp_path, capsys):
        assert run(["gen-dataset", "--n", 0, "--out-dir", tmp_path / "ds"]) == 1
        assert "n_maps must be at least 1" in capsys.readouterr().err

    def test_map_above_the_cap(self, tmp_path, capsys):
        out = tmp_path / "ds"
        args = ["gen-dataset", "--n", 1, "--width", 4097, "--height", 4096, "--out-dir", out]
        assert run(args) == 1
        assert "map must have at most 16777216 cells, got 4097x4096" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_leaves_no_tree(self, tmp_path, capsys):
        # no 2x2 map has a blocked density in [0.1, 0.3], so sample 0 is never made
        out, kept = tmp_path / "ds", tmp_path / "kept"
        (kept / "maps").mkdir(parents=True)
        (kept / "notes.txt").write_text("mine\n")
        for target in (out, kept):
            args = ["gen-dataset", "--n", 1, "--width", 2, "--height", 2, "--out-dir", target]
            assert run(args) == 1
            assert "sample 0: no valid map/goal pair" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in kept.rglob("*")) == ["maps", "notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine\n"


class TestEstimateAndTsp:
    def test_estimate_writes_prediction_layout(self, small_world, tmp_path):
        map_path, goals_path = small_world
        out = tmp_path / "est"
        assert run(["estimate", "--map", map_path, "--goals", goals_path,
                    "--estimator", "oracle", "--out-dir", out]) == 0
        assert (out / "weights.csv").exists()
        assert (out / "distances.csv").exists()
        assert (out / "pair_0_1.pgm").exists()
        assert (out / "pair_2_3.pgm").exists()

    def test_tsp_json(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        out = tmp_path / "est"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", out])
        tour_file = tmp_path / "tour.json"
        assert run(["tsp", "--weights", out / "weights.csv", "--out", tour_file]) == 0
        payload = json.loads(tour_file.read_text())
        assert payload["method"] == "EXACT"
        assert sorted(payload["order"]) == [0, 1, 2, 3]
        assert payload["cost"] > 0

    def test_external_estimator_round_trip(self, small_world, tmp_path):
        map_path, goals_path = small_world
        est_dir = tmp_path / "est"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", est_dir])
        out2 = tmp_path / "re"
        assert run(["estimate", "--map", map_path, "--goals", goals_path,
                    "--estimator", f"external:{est_dir}", "--out-dir", out2]) == 0
        assert (out2 / "weights.csv").read_text() == (est_dir / "weights.csv").read_text()

    def test_bad_weights_csv(self, tmp_path, capsys):
        bad = tmp_path / "w.csv"
        bad.write_text("0,1\nx,0\n")
        assert run(["tsp", "--weights", bad]) == 1
        assert "error:" in capsys.readouterr().err


class TestPlan:
    def test_rrt_plan_writes_path_and_stats(self, small_world, tmp_path):
        map_path, _ = small_world
        path_csv = tmp_path / "path.csv"
        stats_json = tmp_path / "stats.json"
        code = run(["plan", "--map", map_path, "--start", "2.5,2.5", "--goal", "20.5,20.5",
                    "--seed", 4, "--out-path", path_csv, "--out-stats", stats_json])
        assert code == 0
        rows = path_csv.read_text().strip().splitlines()
        assert len(rows) >= 2
        stats = json.loads(stats_json.read_text())
        assert set(stats) == {"length", "samples_used"}
        assert stats["length"] > 0 and stats["samples_used"] >= 0

    def test_rrt_star_plan(self, small_world, tmp_path):
        map_path, _ = small_world
        code = run(["plan", "--map", map_path, "--algorithm", "rrt-star",
                    "--start", "2.5,2.5", "--goal", "20.5,20.5", "--seed", 4,
                    "--max-samples", 500, "--out-path", tmp_path / "p.csv"])
        assert code == 0

    def test_plan_with_mask(self, small_world, tmp_path):
        map_path, goals_path = small_world
        est_dir = tmp_path / "est"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", est_dir])
        code = run(["plan", "--map", map_path, "--mask", est_dir / "pair_0_2.pgm",
                    "--start", "2.5,2.5", "--goal", "20.5,20.5", "--seed", 4,
                    "--out-path", tmp_path / "p.csv"])
        assert code == 0

    def test_bad_planner_flag(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        code = run(["plan", "--map", map_path, "--start", "2.5,2.5", "--goal", "20.5,3.5",
                    "--step", 0, "--out-path", tmp_path / "p.csv"])
        assert code == 1
        assert "step_size must be positive" in capsys.readouterr().err

    def test_unreachable_exits_nonzero(self, tmp_path, capsys):
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        map_path = tmp_path / "wall.map"
        save_map(map_path, GridMap(cells))
        code = run(["plan", "--map", map_path, "--start", "2.5,2.5", "--goal", "13.5,13.5",
                    "--max-samples", 300, "--out-path", tmp_path / "p.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_max_samples_above_the_cap(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        code = run(["plan", "--map", map_path, "--start", "2.5,2.5", "--goal", "20.5,3.5",
                    "--max-samples", MAX_SAMPLES + 1, "--out-path", tmp_path / "p.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"max_samples must be at most {MAX_SAMPLES}" in err and "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()

    def test_start_in_obstacle(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        code = run(["plan", "--map", map_path, "--start", "11.5,10.5", "--goal", "20.5,20.5",
                    "--out-path", tmp_path / "p.csv"])
        assert code == 1
        assert "start (11.5, 10.5) is not free" in capsys.readouterr().err


class TestPipelineCommand:
    def test_writes_solution_dir(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        out = tmp_path / "sol"
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--seed", 7, "--out-dir", out, "--svg", tmp_path / "sol.svg"])
        assert code == 0
        summary = json.loads((out / "solution.json").read_text())
        assert sorted(summary["order"]) == [0, 1, 2, 3]
        assert len(summary["legs"]) == 4
        for leg in summary["legs"]:
            assert (out / leg["file"]).exists()
        assert (tmp_path / "sol.svg").exists()
        order = ",".join(map(str, summary["order"]))
        (line,) = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            rf"order {order}  cost {summary['total_cost']:.3f}  "
            rf"samples {summary['samples_total']} in \d+\.\d{{3}}s",
            line,
        )

    def test_deterministic_outputs(self, small_world, tmp_path):
        map_path, goals_path = small_world
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run(["pipeline", "--map", map_path, "--goals", goals_path,
                 "--seed", 7, "--out-dir", out])
            outs.append(out)
        a, b = outs
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_baseline_algorithm(self, small_world, tmp_path):
        map_path, goals_path = small_world
        out = tmp_path / "sol"
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--algorithm", "euclidean-rrt-star", "--step", 1.0,
                    "--goal-tol", 1.0, "--seed", 7, "--out-dir", out])
        assert code == 0
        assert json.loads((out / "solution.json").read_text())["algorithm"] == "euclidean-rrt-star"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_goal_in_obstacle(self, small_world, tmp_path, capsys, algorithm):
        map_path, _ = small_world
        goals_path = tmp_path / "blocked.csv"
        save_goals(goals_path, GoalSet([Point(2.5, 2.5), Point(11.5, 10.5), Point(20.5, 20.5)]))
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--algorithm", algorithm, "--out-dir", tmp_path / "sol"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{goals_path}: goal 1 at (11.5, 10.5) is inside an obstacle" in err

    def test_duplicate_goal_rows(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        goals_path = tmp_path / "dup.csv"
        goals_path.write_text("2.5,2.5\n20.5,3.5\n\n2.5,2.5\n")
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--out-dir", tmp_path / "sol"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{goals_path} row 4 repeats row 1: (2.5, 2.5)" in err

    def test_goals_sharing_a_cell(self, tmp_path, capsys):
        # 0 apart on the grid, so the oracle refuses them and names the pair;
        # the euclidean estimator plans them
        map_path, goals_path = tmp_path / "empty.map", tmp_path / "goals.csv"
        save_map(map_path, GridMap(np.zeros((8, 8), dtype=bool)))
        save_goals(goals_path, GoalSet([Point(1.25, 1.25), Point(1.75, 1.75), Point(5.5, 5.5)]))
        files = ["--map", map_path, "--goals", goals_path]
        for command in ("pipeline", "estimate"):
            assert run([command, *files, "--estimator", "oracle", "--out-dir", tmp_path / command]) == 1
            assert capsys.readouterr().err == "error: goal pair (0, 1) shares cell (1, 1)\n"
            assert not (tmp_path / command).exists()
        assert run(["pipeline", *files, "--estimator", "euclidean", "--seed", 1,
                    "--out-dir", tmp_path / "sol"]) == 0
        assert run(["estimate", *files, "--estimator", "euclidean", "--out-dir", tmp_path / "est"]) == 0

    def test_unknown_estimator(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--estimator", "foo", "--out-dir", tmp_path / "sol"])
        assert code == 1
        assert "unknown estimator 'foo'" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_seed(self, small_world, tmp_path):
        map_path, goals_path = small_world
        config = tmp_path / "run.cfg"
        config.write_text("seed=9\nmax_samples=900\n# comment\nk=0.2\n")
        out = tmp_path / "sol"
        code = run(["pipeline", "--map", map_path, "--goals", goals_path,
                    "--config", config, "--out-dir", out])
        assert code == 0
        assert json.loads((out / "solution.json").read_text())["seed"] == 9

    def test_flag_overrides_config(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        config = tmp_path / "run.cfg"
        config.write_text("seed=9\n")
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        run(["pipeline", "--map", map_path, "--goals", goals_path, "--config", config,
             "--out-dir", out1])
        run(["pipeline", "--map", map_path, "--goals", goals_path, "--config", config,
             "--seed", 9, "--out-dir", out2])
        assert json.loads((out1 / "solution.json").read_text())["seed"] == \
            json.loads((out2 / "solution.json").read_text())["seed"]

    def test_malformed_config(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value pair\n")
        code = run(["plan", "--map", map_path, "--config", config,
                    "--start", "2.5,2.5", "--goal", "3.5,3.5", "--out-path", tmp_path / "p.csv"])
        assert code == 1

    @pytest.mark.parametrize(
        "command, entry",
        [("plan", "step=abc"), ("plan", "seed=x"), ("pipeline", "seed=x"),
         ("pipeline", "max_samples=1.5"), ("bench", "seed=x"), ("bench", "k=high")],
    )
    def test_bad_config_value(self, small_world, tmp_path, capsys, command, entry):
        map_path, goals_path = small_world
        config = tmp_path / "bad.cfg"
        config.write_text(entry + "\n")
        args = {
            "plan": ["--map", map_path, "--start", "2.5,2.5", "--goal", "3.5,3.5",
                     "--out-path", tmp_path / "p.csv"],
            "pipeline": ["--map", map_path, "--goals", goals_path, "--out-dir", tmp_path / "sol"],
            "bench": ["--scenarios", "simple", "--algorithms", "guided", "--repeats", 1,
                      "--out-dir", tmp_path / "b"],
        }[command]
        code = run([command, "--config", config, *args])
        assert code == 1
        key, value = entry.split("=")
        assert f"{config}: {key}={value!r}" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "--scenarios", "simple", "--algorithms", "guided",
                    "--repeats", 2, "--seed", 3, "--out-dir", out])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert "median cost" in capsys.readouterr().out

    def test_bad_planner_flag(self, tmp_path, capsys):
        code = run(["bench", "--scenarios", "simple", "--algorithms", "guided",
                    "--repeats", 1, "--rewire-radius", -1, "--out-dir", tmp_path / "b"])
        assert code == 1
        assert "rewire_radius must be positive" in capsys.readouterr().err

    def test_bad_planner_flag_runs_nothing(self, tmp_path, capsys):
        with mock.patch.object(multigoal.bench, "run_algorithm") as run_algorithm:
            code = run(["bench", "--scenarios", "simple", "--k", 2, "--out-dir", tmp_path / "b"])
        assert code == 1
        assert run_algorithm.call_count == 0
        assert capsys.readouterr().err == "error: k must lie in [0, 1]\n"
        assert not (tmp_path / "b").exists()

    def test_unknown_algorithm(self, tmp_path, capsys):
        code = run(["bench", "--scenarios", "simple", "--algorithms", "astar",
                    "--out-dir", tmp_path / "b"])
        assert code == 1

    def test_unknown_algorithm_after_a_known_one_runs_nothing(self, tmp_path, capsys):
        with mock.patch.object(multigoal.bench, "run_algorithm") as run_algorithm:
            code = run(["bench", "--scenarios", "simple", "--algorithms", "guided,astar",
                        "--out-dir", tmp_path / "b"])
        assert code == 1
        assert run_algorithm.call_count == 0
        assert capsys.readouterr().err == (
            f"error: unknown algorithm 'astar'; choose from {ALGORITHMS}\n"
        )
        assert not (tmp_path / "b").exists()

    def test_unknown_scenario(self, tmp_path, capsys):
        code = run(["bench", "--scenarios", "nosuch", "--out-dir", tmp_path / "b"])
        assert code == 1
        assert "unknown scenario 'nosuch'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--scenarios", "--algorithms"])
    def test_nothing_to_run(self, tmp_path, capsys, flag):
        code = run(["bench", flag, ",", "--k", 2, "--out-dir", tmp_path / "b"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: benchmark needs at least one scenario and one algorithm\n"
        )
        assert not (tmp_path / "b").exists()

    def test_zero_repeats(self, tmp_path, capsys):
        code = run(["bench", "--scenarios", "simple", "--repeats", 0, "--out-dir", tmp_path / "b"])
        assert code == 1
        assert "repeats must be at least 1" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(multigoal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "multigoal", "--help"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "gen-map" in proc.stdout


class TestScoreCommand:
    def test_score_oracle_against_itself(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        labels = tmp_path / "labels"
        run(["estimate", "--map", map_path, "--goals", goals_path,
             "--dilation-radius", "0", "--out-dir", labels])
        out_csv = tmp_path / "scores.csv"
        code = run(["score", "--labels", labels, "--predictions", labels, "--out", out_csv])
        assert code == 0
        text = capsys.readouterr().out
        assert "aggregate:" in text and "mse 0.0" in text
        assert out_csv.read_text().startswith("i,j,bce,dice,squared_error")

    def test_score_euclidean_against_oracle(self, small_world, tmp_path, capsys):
        map_path, goals_path = small_world
        labels = tmp_path / "labels"
        preds = tmp_path / "preds"
        run(["estimate", "--map", map_path, "--goals", goals_path,
             "--dilation-radius", "0", "--out-dir", labels])
        run(["estimate", "--map", map_path, "--goals", goals_path,
             "--estimator", "euclidean", "--out-dir", preds])
        code = run(["score", "--labels", labels, "--predictions", preds])
        assert code == 0

    @pytest.mark.parametrize("bad", ["gray-mask", "negative-distance"])
    def test_bad_labels(self, small_world, tmp_path, capsys, bad):
        map_path, goals_path = small_world
        labels = tmp_path / "labels"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", labels])
        if bad == "gray-mask":
            culprit = labels / "pair_0_2.pgm"
            culprit.write_bytes(culprit.read_bytes().replace(b"\xff", b"\xc8"))
            expected = f"error: {culprit}: a label mask may hold only 0 and 255\n"
        else:
            culprit = labels / "distances.csv"
            culprit.write_text(culprit.read_text().replace("0,1,", "0,1,-"))
            expected = f"error: {culprit} row 1: bad entry '0,1,-"
        capsys.readouterr()
        assert run(["score", "--labels", labels, "--predictions", labels]) == 1
        assert capsys.readouterr().err.startswith(expected)


    @pytest.mark.parametrize("bad", ["shape", "all-zero"])
    def test_mask_pair_errors_name_both_files(self, small_world, tmp_path, capsys, bad):
        map_path, goals_path = small_world
        labels, preds = tmp_path / "labels", tmp_path / "preds"
        for out in (labels, preds):
            run(["estimate", "--map", map_path, "--goals", goals_path,
                 "--dilation-radius", "0", "--out-dir", out])
        if bad == "shape":
            write_pgm(preds / "pair_0_1.pgm", np.zeros((16, 20), dtype=np.uint8))
            message = "mask shapes differ: (24, 24) vs (16, 20)"
        else:
            for out in (labels, preds):
                write_pgm(out / "pair_0_1.pgm", np.zeros((24, 24), dtype=np.uint8))
            message = "both masks are all-zero; Dice denominator vanishes"
        capsys.readouterr()
        assert run(["score", "--labels", labels, "--predictions", preds]) == 1
        assert capsys.readouterr().err == (
            f"error: {labels / 'pair_0_1.pgm'} vs {preds / 'pair_0_1.pgm'}: {message}\n"
        )


class TestRenderCommand:
    def test_render_solution_dir(self, small_world, tmp_path):
        map_path, goals_path = small_world
        sol = tmp_path / "sol"
        run(["pipeline", "--map", map_path, "--goals", goals_path, "--seed", 1,
             "--out-dir", sol])
        out = tmp_path / "r.svg"
        code = run(["render", "--map", map_path, "--goals", goals_path,
                    "--solution-dir", sol, "--out", out])
        assert code == 0
        assert out.read_text().count("<polyline") == 4

    @pytest.mark.parametrize("data, message", [
        (b'{"legs": [\xe9]}', " byte 10: non-ASCII byte 0xe9"),
        (b"{", ": not valid JSON (Expecting property name"),
        (b'{"leg": []}', ": expected an object with a 'legs' list"),
        (b'{"legs": [{"file": 3}]}', ": legs[0] needs string fields file"),
        (b'{"legs": [], "legs": []}', ": key 'legs' repeated in one object"),
    ])
    def test_bad_solution_json(self, small_world, tmp_path, capsys, data, message):
        map_path, goals_path = small_world
        sol = tmp_path / "sol"
        run(["pipeline", "--map", map_path, "--goals", goals_path, "--out-dir", sol])
        (sol / "solution.json").write_bytes(data)
        capsys.readouterr()
        out = tmp_path / "r.svg"
        assert run(["render", "--map", map_path, "--solution-dir", sol, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {sol / 'solution.json'}{message}")
        assert not out.exists()

    def test_render_mask(self, small_world, tmp_path):
        map_path, goals_path = small_world
        est = tmp_path / "est"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", est])
        out = tmp_path / "m.svg"
        code = run(["render", "--map", map_path, "--mask", est / "pair_0_1.pgm", "--out", out])
        assert code == 0
        assert "fill-opacity" in out.read_text()

    @pytest.mark.parametrize("text, where", [
        ("1.5,1.5\n2.5,2.5,0\n", "row 2"),
        ("1.5,nan\n2.5,2.5\n", "row 1"),
        ("1.5,1.5\n", "at least 2 points"),
    ])
    def test_bad_path_file(self, small_world, tmp_path, capsys, text, where):
        map_path, _ = small_world
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run(["render", "--map", map_path, "--path", bad, "--out", tmp_path / "r.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and where in err


class TestBadInputExitsOne:
    def test_render_missing_mask(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        missing = tmp_path / "nosuch.pgm"
        code = run(["render", "--map", map_path, "--mask", missing, "--out", tmp_path / "r.svg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    @pytest.mark.parametrize("command", ["render", "plan"])
    def test_mask_of_another_size(self, small_world, tmp_path, capsys, command):
        map_path, _ = small_world
        mask = tmp_path / "m.pgm"
        write_pgm(mask, np.full((16, 20), 255, dtype=np.uint8))
        out = tmp_path / "out"
        args = {
            "render": ["render", "--map", map_path, "--mask", mask, "--out", out],
            "plan": ["plan", "--map", map_path, "--start", "2.5,2.5", "--goal", "20.5,3.5",
                     "--mask", mask, "--out-path", out],
        }[command]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {mask}: mask is 20x16, map is 24x24\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "estimate"])
    def test_external_mask_of_another_size(self, small_world, tmp_path, capsys, command):
        map_path, goals_path = small_world
        small_map, small_goals, preds = tmp_path / "s.map", tmp_path / "s.csv", tmp_path / "p"
        save_map(small_map, GridMap(np.zeros((16, 20), dtype=bool)))
        save_goals(small_goals, GoalSet([Point(2.5, 2.5), Point(15.5, 3.5), Point(15.5, 12.5),
                                         Point(3.5, 12.5)]))
        assert run(["estimate", "--map", small_map, "--goals", small_goals,
                    "--out-dir", preds]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run([command, "--map", map_path, "--goals", goals_path,
                    "--estimator", f"external:{preds}", "--out-dir", out]) == 1
        mask = preds / "pair_0_1.pgm"
        assert capsys.readouterr().err == f"error: {mask}: mask is 20x16, map is 24x24\n"
        assert not out.exists()

    def test_pipeline_missing_goals(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        missing = tmp_path / "nosuch.csv"
        code = run(["pipeline", "--map", map_path, "--goals", missing, "--out-dir", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_tsp_missing_weights(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.csv"
        assert run(["tsp", "--weights", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_gen_map_failed_goals_leave_no_file(self, tmp_path, capsys):
        out = tmp_path / "m.map"
        assert run(["gen-map", "--goals", 1, "--out", out]) == 1
        assert "need m >= 2 goals, got 1" in capsys.readouterr().err
        assert not out.exists() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("radius, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_estimate_bad_dilation_radius(self, small_world, tmp_path, capsys, radius, shown):
        map_path, goals_path = small_world
        out_dir = tmp_path / "est"
        code = run(["estimate", "--map", map_path, "--goals", goals_path,
                    "--dilation-radius", radius, "--out-dir", out_dir])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: dilation radius must be >= 0, got {shown}\n"
        assert not out_dir.exists()

    def test_failed_estimate_leaves_no_directory(self, tmp_path, capsys):
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        map_path, goals_path = tmp_path / "wall.map", tmp_path / "goals.csv"
        save_map(map_path, GridMap(cells))
        save_goals(goals_path, GoalSet([Point(2.5, 2.5), Point(13.5, 13.5)]))
        out, kept = tmp_path / "est", tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        for target in (out, kept):
            args = ["estimate", "--map", map_path, "--goals", goals_path, "--out-dir", target]
            assert run(args) == 1
            assert "goal pair (0, 1) is unreachable" in capsys.readouterr().err
        assert not out.exists()
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine\n"

    def test_estimate_infinite_dilation_radius(self, small_world, tmp_path):
        map_path, goals_path = small_world
        out_dir = tmp_path / "est"
        code = run(["estimate", "--map", map_path, "--goals", goals_path,
                    "--dilation-radius", "inf", "--out-dir", out_dir])
        assert code == 0
        free = np.where(load_map(map_path).cells, 0, 255)
        assert np.array_equal(read_pgm(out_dir / "pair_0_1.pgm"), free)

    def test_render_goal_off_the_map(self, small_world, tmp_path, capsys):
        map_path, _ = small_world
        goals = tmp_path / "far.csv"
        goals.write_text("100.5,3.5\n2.5,2.5\n")
        out = tmp_path / "r.svg"
        code = run(["render", "--map", map_path, "--goals", goals, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {goals}: point (100.5, 3.5) outside 24x24 map\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--goals", "--weights", "--map", "--path", "--config"])
    def test_non_ascii_file(self, small_world, tmp_path, capsys, flag):
        map_path, goals_path = small_world
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1.5,1.5\n2.5,2\xe9.5\n")
        args = {
            "--goals": ["pipeline", "--map", map_path, "--goals", bad, "--out-dir", tmp_path / "o"],
            "--weights": ["tsp", "--weights", bad],
            "--map": ["render", "--map", bad, "--out", tmp_path / "r.svg"],
            "--path": ["render", "--map", map_path, "--path", bad, "--out", tmp_path / "r.svg"],
            "--config": ["pipeline", "--map", map_path, "--goals", goals_path, "--config", bad,
                         "--out-dir", tmp_path / "o"],
        }[flag]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {bad} byte 13: non-ASCII byte 0xe9\n"
        assert not (tmp_path / "o").exists() and not (tmp_path / "r.svg").exists()

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    def test_nan_prediction_distance(self, small_world, tmp_path, capsys, command):
        map_path, goals_path = small_world
        preds = tmp_path / "preds"
        run(["estimate", "--map", map_path, "--goals", goals_path, "--estimator", "euclidean",
             "--out-dir", preds])
        dist = preds / "distances.csv"
        dist.write_text("0,1,nan\n" + "".join(dist.read_text().splitlines(True)[1:]))
        capsys.readouterr()
        args = {
            "pipeline": ["pipeline", "--map", map_path, "--goals", goals_path,
                         "--estimator", f"external:{preds}", "--out-dir", tmp_path / "o"],
            "score": ["score", "--labels", preds, "--predictions", preds],
        }[command]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dist} row 1: bad entry '0,1,nan'\n"

    @pytest.mark.parametrize("text, expected", [
        ("seed=3\nstpe=3\n", "error: {config} line 2: unknown key 'stpe'\n"),
        ("step=nan\n", "error: step_size must be positive\n"),
    ])
    def test_config_rejects_typos(self, small_world, tmp_path, capsys, text, expected):
        map_path, goals_path = small_world
        config = tmp_path / "run.cfg"
        config.write_text(text)
        code = run(["pipeline", "--map", map_path, "--goals", goals_path, "--config", config,
                    "--out-dir", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == expected.format(config=config)
        assert not (tmp_path / "o").exists()

    def test_config_keys_of_other_subcommands_stay_valid(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=4\nmax_samples=900\nmask_threshold=0.3\n")
        assert run(["gen-map", "--config", config, "--width", 16, "--height", 16,
                    "--out", tmp_path / "m.map"]) == 0

    @pytest.mark.parametrize("command", ["estimate", "tsp", "score", "render"])
    def test_unread_options_are_gone(self, capsys, command):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        usage = capsys.readouterr().out
        assert "--out" in usage and "--seed" not in usage and "--config" not in usage

    @pytest.mark.parametrize("args, message", [
        (["gen-map", "--width", 1], "map must be at least 2x2, got 1x64"),
        (["gen-map", "--count-min", 5, "--count-max", 2], "bad count_range (5, 2)"),
        (["gen-map", "--goals", 1], "need m >= 2 goals, got 1"),
        (["score", "--alpha", "1,x"], "--alpha: bad entry '1,x'"),
        (["score", "--alpha", "0,1,1"], "--alpha: all loss weights must be positive"),
        (["gen-map", "--width", -5], "map must be at least 2x2, got -5x64"),
        (["gen-map", "--width", 3_000_000, "--height", 3_000_000],
         "map must have at most 16777216 cells, got 3000000x3000000"),
        (["score", "--alpha", "1,nan,1"], "--alpha: all loss weights must be positive and finite"),
        (["gen-map", "--goals", 5, "--min-sep", "nan"],
         "min_separation must be finite and >= 0, got nan"),
        (["gen-map", "--goals", 5, "--min-sep", "inf"],
         "min_separation must be finite and >= 0, got inf"),
        (["gen-dataset", "--min-sep", "nan"], "min_separation must be finite and >= 0, got nan"),
        (["plan", "--seed", -1], "seed must be an unsigned 64-bit integer, got -1"),
        (["plan", "--seed", 2**64], f"seed must be an unsigned 64-bit integer, got {2**64}"),
        (["pipeline", "--seed", -1], "seed must be an unsigned 64-bit integer, got -1"),
        (["pipeline", "--seed", 2**64], f"seed must be an unsigned 64-bit integer, got {2**64}"),
        (["pipeline", "--config", "seed=-1"], "seed must be an unsigned 64-bit integer, got -1"),
        (["gen-dataset", "--seed", -1], "seed must be an unsigned 64-bit integer, got -1"),
        (["gen-dataset", "--seed", 2**64],
         f"seed must be an unsigned 64-bit integer, got {2**64}"),
        (["score", "--alpha", "1,1"], "--alpha: need 3 loss weights (BCE, Dice, MSE), got 2"),
        (["gen-map", "--goals", 0], "need m >= 2 goals, got 0"),
        # the mask is never opened: it guides only rrt
        (["plan", "--algorithm", "rrt-star", "--mask", "nosuch.pgm"],
         "--mask guides only --algorithm rrt, not rrt-star"),
        # the estimator spec is checked for every algorithm, though only guided uses it
        *((["pipeline", "--algorithm", algorithm, "--estimator", spec, "--max-samples", 300],
           message)
          for algorithm in ("rrt-star", "euclidean-rrt-star")
          for spec, message in [("nosuch", "unknown estimator 'nosuch'"),
                                ("external:nosuch-dir", "nosuch-dir: no distances.csv")]),
        # an empty directory would read distances.csv from the working directory
        (["pipeline", "--estimator", "external:"],
         "estimator 'external:' names no directory (expected external:<dir>)"),
    ])
    def test_rejected_value(self, small_world, tmp_path, capsys, args, message):
        map_path, goals_path = small_world
        out = tmp_path / "out"
        if "--config" in args:  # the value after --config is the file's text
            k = args.index("--config") + 1
            config = tmp_path / "run.cfg"
            config.write_text(args[k] + "\n")
            args = [*args[:k], config, *args[k + 1:]]
        if args[0] == "gen-map":
            args = args + ["--out", out]
        elif args[0] == "gen-dataset":
            args = args + ["--n", 1, "--out-dir", out]
        elif args[0] == "plan":
            args = args + ["--map", map_path, "--start", "2.5,2.5", "--goal", "20.5,20.5",
                           "--out-path", out]
        elif args[0] == "pipeline":
            args = args + ["--map", map_path, "--goals", goals_path, "--out-dir", out]
        else:  # score: a labels directory that is not there is never read
            args = args + ["--labels", tmp_path / "missing", "--predictions", tmp_path]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    """Tiny inputs for every subcommand: a 12x12 map with 3 goals, its estimate
    directory, a pipeline solution on it, a 2-sample dataset and config files."""
    root = tmp_path_factory.mktemp("fuzz")
    cells = np.zeros((12, 12), dtype=bool)
    cells[2:9, 6] = True
    save_map(root / "world.map", GridMap(cells))
    save_goals(root / "goals.csv", GoalSet([Point(1.5, 1.5), Point(10.5, 2.5), Point(3.5, 10.5)]))
    world = ["--map", root / "world.map", "--goals", root / "goals.csv"]
    assert run(["estimate", *world, "--out-dir", root / "est"]) == 0
    assert run(["pipeline", *world, "--seed", 1, "--out-dir", root / "sol"]) == 0
    assert run(["gen-dataset", "--n", 2, "--width", 12, "--height", 12, "--seed", 1,
                "--out-dir", root / "ds"]) == 0
    for name, text in [("neg", "seed=-1\n"), ("big", f"seed={2**64}\n"),
                       ("zero", "max_samples=0\n"), ("ok", "seed=2\nmax_samples=50\n")]:
        (root / f"{name}.cfg").write_text(text)
    return root


def fuzz_options(root, out):
    """Per subcommand: the arguments every run gets, and the values each option
    may take. The values sit at or just past each limit (0, -1, nan, inf,
    MAX_SAMPLES, MAX_CELLS, seeds outside [0, 2**64)), or are
    small; no value makes a run that is accepted and large."""
    seeded = {
        "--seed": [-1, 0, 3, 2**64 - 1, 2**64],
        "--config": [root / f"{name}.cfg" for name in ("neg", "big", "zero", "ok")],
    }
    planner = {
        **seeded,
        "--step": ["0", "-1", "nan", "inf", "0.5"],
        "--max-samples": ["0", "-1", "nan", "1", "50", MAX_SAMPLES + 1],
        "--k": ["-1", "2", "nan", "0", "1"],
        "--goal-tol": ["-1", "nan", "inf", "0", "1"],
        "--rewire-radius": ["0", "-1", "nan", "1"],
        "--mask-threshold": ["-1", "2", "nan", "0", "1"],
    }
    side = ["0", "-1", "2", "12", MAX_CELLS + 1]
    estimators = ["oracle", "euclidean", f"external:{root / 'est'}",
                  f"external:{root / 'missing'}", "nosuch"]
    masks = [root / "est" / "pair_0_1.pgm", root / "ds" / "masks" / "sample_00000.pgm",
             root / "missing.pgm"]
    world = {"--map": root / "world.map", "--goals": root / "goals.csv"}
    return {
        "gen-map": ({"--out": out / "m.map"}, {
            **seeded, "--width": side, "--height": side,
            "--count-min": ["-1", "0", "3"], "--count-max": ["-1", "0", "3"],
            "--size-min": ["-1", "0", "1", "3"], "--size-max": ["-1", "0", "1", "3"],
            "--density-min": ["-1", "0", "0.3", "2", "nan"],
            "--density-max": ["-1", "0", "0.3", "2", "nan"],
            "--goals": ["-1", "0", "1", "2", "3"], "--min-sep": ["-1", "0", "1", "nan", "inf"],
        }),
        "gen-dataset": ({"--n": 1, "--out-dir": out / "ds"}, {
            **seeded, "--n": ["-1", "0", "2"], "--width": side, "--height": side,
            "--min-sep": ["-1", "0", "2", "nan", "inf"], "--validate": [True],
        }),
        "estimate": ({**world, "--out-dir": out / "est"}, {
            "--estimator": estimators, "--dilation-radius": ["-1", "0", "1", "nan", "inf"],
        }),
        "tsp": ({"--weights": root / "est" / "weights.csv"}, {
            "--weights": [root / "ds" / "distances.csv", root / "missing.csv"],
            "--out": [out / "tour.json"],
        }),
        "plan": ({"--map": root / "world.map", "--start": "1.5,1.5", "--goal": "10.5,2.5",
                  "--out-path": out / "p.csv"}, {
            **planner, "--algorithm": ["rrt", "rrt-star"], "--mask": masks,
            "--start": ["1.5,1.5", "6.5,5.5", "-1,1", "nan,1"], "--out-stats": [out / "s.json"],
        }),
        "pipeline": ({**world, "--out-dir": out / "sol"}, {
            **planner, "--algorithm": list(ALGORITHMS), "--estimator": estimators,
            "--svg": [out / "sol.svg"],
        }),
        "bench": ({"--scenarios": "simple", "--algorithms": "guided", "--repeats": 1,
                   "--out-dir": out / "bench"}, {
            **planner, "--repeats": ["-1", "0", "1"], "--estimator": estimators,
            "--algorithms": ["guided", "astar"],
        }),
        "score": ({"--labels": root / "est", "--predictions": root / "est"}, {
            "--labels": [root / "ds", root / "missing"],
            "--alpha": ["1,1,1", "1,1", "1,1,1,1", "0,1,1", "nan,1,1", "inf,1,1", "x"],
            "--out": [out / "scores.csv"],
        }),
        "render": ({"--map": root / "world.map", "--out": out / "r.svg"}, {
            "--goals": [root / "goals.csv", root / "ds" / "distances.csv"], "--mask": masks,
            "--path": [root / "sol" / "leg_00.csv", root / "goals.csv"],
            "--solution-dir": [root / "sol", root / "est"],
        }),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_subcommand_exits_cleanly(fuzz_world, data):
    """Any mix of edge values on any subcommand ends in exit 0, 1 or argparse's
    2, never in a traceback."""
    out = Path(tempfile.mkdtemp(dir=fuzz_world))
    table = fuzz_options(fuzz_world, out)
    command = data.draw(st.sampled_from(sorted(table)), label="command")
    base, choices = table[command]
    assert set(base) | set(choices) <= set(SUBCOMMAND_OPTIONS[command])
    drawn = data.draw(st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(values) for flag, values in choices.items()}
    ), label="options")
    argv = [command]
    for flag, value in {**base, **drawn}.items():
        argv += [flag] if value is True else [flag, str(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
