import json
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import multigoal.bench
from multigoal import GridMap, GoalSet, Point, benchmark
from multigoal.bench import (
    BenchmarkRecord,
    aggregate,
    bench_seed,
    format_report,
    write_aggregate_csv,
    write_results_csv,
)
from multigoal.dataset import _split_of, generate_dataset, validate_dataset
from multigoal.errors import FormatError, InvalidArgument, Unreachable
from multigoal.grid import load_goals, load_map, save_goals, save_map
from multigoal.pgm import read_pgm, write_pgm
from multigoal.scenarios import Scenario
import oracle_reference as ref


def tiny_scenarios():
    g = GridMap(np.zeros((24, 24), dtype=bool))
    goals = GoalSet([Point(2.5, 2.5), Point(20.5, 3.5), Point(19.5, 20.5), Point(3.5, 19.5)])
    cells = np.zeros((24, 24), dtype=bool)
    cells[6:18, 11:13] = True
    g2 = GridMap(cells)
    return [Scenario("open", g, goals), Scenario("blocked", g2, goals)]


FAST = {"max_samples": 400}


class TestBenchmark:
    def test_record_cardinality(self):
        records = benchmark(
            tiny_scenarios()[:1], ("guided", "euclidean-rrt-star"), repeats=3, base_seed=1,
            cfg_overrides=FAST,
        )
        assert len(records) == 6
        assert {(r.scenario, r.algorithm, r.repeat) for r in records} == {
            ("open", a, r) for a in ("guided", "euclidean-rrt-star") for r in range(3)
        }

    def test_unknown_algorithm_is_refused_before_any_run(self):
        with mock.patch.object(multigoal.bench, "run_algorithm") as run_algorithm:
            with pytest.raises(InvalidArgument, match=r"^unknown algorithm 'astar'; choose from "):
                benchmark(tiny_scenarios()[:1], ("guided", "astar"), repeats=2)
        assert run_algorithm.call_count == 0

    @pytest.mark.parametrize("repeats", [2.5, "2"])
    def test_a_non_integer_repeats_is_refused(self, repeats):
        with pytest.raises(InvalidArgument, match=f"^repeats must be an integer, got {repeats!r}$"):
            benchmark(tiny_scenarios()[:1], ("guided",), repeats=repeats)

    def test_rerun_identical_csv(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            records = benchmark(
                tiny_scenarios(), ("guided",), repeats=2, base_seed=7, cfg_overrides=FAST
            )
            write_results_csv(tmp_path / name, records)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_schedule_is_stable(self):
        assert bench_seed(0, "simple", "guided", 3) == bench_seed(0, "simple", "guided", 3)
        assert bench_seed(0, "simple", "guided", 3) != bench_seed(0, "simple", "guided", 4)
        assert bench_seed(0, "simple", "guided", 3) != bench_seed(1, "simple", "guided", 3)

    def test_failures_become_rows(self, tmp_path):
        # goals straddle a full wall: estimation aborts for the guided run
        cells = np.zeros((16, 16), dtype=bool)
        cells[:, 8] = True
        sc = Scenario(
            "split", GridMap(cells), GoalSet([Point(2.5, 2.5), Point(13.5, 13.5)])
        )
        records = benchmark([sc], ("guided",), repeats=2, base_seed=0, cfg_overrides=FAST)
        assert len(records) == 2
        assert all(r.failed and r.cost is None for r in records)
        write_results_csv(tmp_path / "r.csv", records)
        text = (tmp_path / "r.csv").read_text()
        assert "FAILED" in text

    def test_aggregate_stats(self):
        records = benchmark(
            tiny_scenarios()[:1], ("guided",), repeats=4, base_seed=3, cfg_overrides=FAST
        )
        rows = aggregate(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["runs"] == 4 and row["failures"] == 0
        costs = [r.cost for r in records]
        assert row["cost_min"] == min(costs) and row["cost_max"] == max(costs)

    def test_report_formats(self):
        records = benchmark(
            tiny_scenarios()[:1], ("guided",), repeats=2, base_seed=3, cfg_overrides=FAST
        )
        report = format_report(records)
        assert "guided" in report and "median cost" in report

    def test_report_text(self):
        # hand-made records with fixed wall times: a group with a failure, an
        # all-failed group that prints "-", groups in sorted key order
        def record(scenario, algorithm, repeat, wall, cost=None):
            solution = None if cost is None else SimpleNamespace(total_cost=cost)
            return BenchmarkRecord(scenario, algorithm, repeat, repeat, wall, solution)

        records = [
            record("open", "rrt-star", 0, 1.5),
            record("open", "guided", 0, 0.1, 10.0),
            record("open", "guided", 1, 0.3),
            record("open", "rrt-star", 1, 2.5),
            record("open", "guided", 2, 0.2, 12.5),
            record("blocked", "guided", 0, 0.0125, 31.0),
        ]
        assert format_report(records) == "\n".join([
            "scenario     algorithm             ok fail  median cost  median time",
            "blocked      guided                 1    0        31.00       0.013s",
            "open         guided                 2    1        11.25       0.200s",
            "open         rrt-star               0    2            -       2.000s",
        ])

    def test_keep_solutions(self):
        records = benchmark(
            tiny_scenarios()[:1], ("guided",), repeats=1, base_seed=2, cfg_overrides=FAST
        )
        assert records[0].solution is not None
        assert records[0].solution.total_cost == records[0].cost

    def test_no_time_column_in_csv(self, tmp_path):
        records = benchmark(
            tiny_scenarios()[:1], ("guided",), repeats=1, base_seed=2, cfg_overrides=FAST
        )
        assert records[0].wall_time_s > 0
        write_results_csv(tmp_path / "r.csv", records)
        header, row = (tmp_path / "r.csv").read_text().splitlines()
        assert header == "scenario,algorithm,repeat,seed,cost,samples,order"
        assert row.split(",")[5] == str(records[0].samples)

    def test_csv_bytes(self, tmp_path):
        """The order field holds commas, so it is quoted; costs are written in
        full precision and failed runs leave their fields empty."""
        tour = SimpleNamespace(order=(0, 1, 2, 4, 3))
        solution = SimpleNamespace(total_cost=0.1 + 0.2, samples_total=40, tour=tour)
        records = [
            BenchmarkRecord("tiny", "guided", 0, 7, 0.5, solution),
            BenchmarkRecord("tiny", "guided", 1, 8, 0.25),
            BenchmarkRecord("tiny", "rrt-star", 0, 9, 0.75),
        ]
        write_results_csv(tmp_path / "r.csv", records)
        write_aggregate_csv(tmp_path / "a.csv", records)
        assert (tmp_path / "r.csv").read_bytes() == (
            b"scenario,algorithm,repeat,seed,cost,samples,order\n"
            b'tiny,guided,0,7,0.30000000000000004,40,"0,1,2,4,3"\n'
            b"tiny,guided,1,8,,,FAILED\n"
            b"tiny,rrt-star,0,9,,,FAILED\n"
        )
        assert (tmp_path / "a.csv").read_bytes() == (
            b"scenario,algorithm,runs,failures,cost_median,cost_min,cost_max\n"
            b"tiny,guided,2,1,0.30000000000000004,0.30000000000000004,0.30000000000000004\n"
            b"tiny,rrt-star,1,1,,,\n"
        )

    def test_aggregate_csv_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            records = benchmark(
                tiny_scenarios(), ("guided",), repeats=2, base_seed=7, cfg_overrides=FAST
            )
            write_aggregate_csv(tmp_path / name, records)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSplits:
    def test_6_2_2_at_200(self):
        splits = [_split_of(i, 200) for i in range(200)]
        assert splits.count("train") == 120
        assert splits.count("val") == 40
        assert splits.count("test") == 40

    def test_6_2_2_at_10(self):
        splits = [_split_of(i, 10) for i in range(10)]
        assert (splits.count("train"), splits.count("val"), splits.count("test")) == (6, 2, 2)


class TestGenerateDataset:
    def test_small_dataset_complete(self, tmp_path):
        manifest = generate_dataset(10, 42, tmp_path, width=32, height=32)
        assert manifest["n"] == 10
        assert len(manifest["samples"]) == 10
        counts = {"train": 0, "val": 0, "test": 0}
        for entry in manifest["samples"]:
            counts[entry["split"]] += 1
            assert (tmp_path / entry["map"]).exists()
            assert (tmp_path / entry["goals"]).exists()
            assert (tmp_path / entry["mask"]).exists()
        assert counts == {"train": 6, "val": 2, "test": 2}

    def test_samples_revalidate(self, tmp_path):
        generate_dataset(8, 1, tmp_path, width=32, height=32)
        assert validate_dataset(tmp_path) == 8

    def test_byte_identical_regeneration(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(6, 99, a, width=32, height=32)
        generate_dataset(6, 99, b, width=32, height=32)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(4, 1, a, width=32, height=32)
        generate_dataset(4, 2, b, width=32, height=32)
        assert (a / "distances.csv").read_bytes() != (b / "distances.csv").read_bytes()

    def test_validation_detects_corruption(self, tmp_path):
        generate_dataset(4, 5, tmp_path, width=32, height=32)
        dist_file = tmp_path / "distances.csv"
        lines = dist_file.read_text().splitlines()
        sample_id, value = lines[0].split(",")
        lines[0] = f"{sample_id},{float(value) + 1.0!r}"
        dist_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="distance"):
            validate_dataset(tmp_path)

    def test_validation_detects_a_mask_missing_a_path_cell(self, tmp_path):
        # the cell lies on the reference search's path, so validation flags it
        # only if its own (bounded) search still finds that same path
        generate_dataset(4, 5, tmp_path, width=32, height=32)
        grid = load_map(tmp_path / "maps" / "sample_00002.map")
        a, b = load_goals(tmp_path / "goals" / "sample_00002.csv")
        ((path, _),) = ref.shortest_paths_from(grid, a, [b])
        x, y = path[len(path) // 2]
        mask_file = tmp_path / "masks" / "sample_00002.pgm"
        raster = read_pgm(mask_file).copy()
        raster[y, x] = 0
        write_pgm(mask_file, raster)
        message = f"{mask_file}: sample_00002 mask misses optimal path cell ({x}, {y})"
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            validate_dataset(tmp_path)

    @pytest.mark.parametrize("stored", [lambda d: 0.5 * d, lambda d: 0.0,
                                        lambda d: float("nan"), lambda d: d + 1.0])
    def test_validation_reports_a_wrong_stored_distance(self, tmp_path, stored):
        # the stored distance bounds validation's search: one too small or NaN
        # falls back to the full search, one too large still finds the true path
        generate_dataset(2, 5, tmp_path, width=32, height=32)
        grid = load_map(tmp_path / "maps" / "sample_00000.map")
        a, b = load_goals(tmp_path / "goals" / "sample_00000.csv")
        ((_, length),) = ref.shortest_paths_from(grid, a, [b])
        dist_file = tmp_path / "distances.csv"
        lines = dist_file.read_text().splitlines()
        value = stored(length)
        lines[0] = f"sample_00000,{value!r}"
        dist_file.write_text("\n".join(lines) + "\n")
        message = f"{dist_file}: sample_00000 stored distance {value} != oracle {length}"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    @pytest.mark.parametrize("height, width", [(8, 8), (40, 32), (32, 40)])
    def test_validation_refuses_a_mask_of_another_shape(self, tmp_path, height, width):
        # a smaller mask would be indexed out of range, a larger one at the wrong cells
        generate_dataset(2, 5, tmp_path, width=32, height=32)
        mask_file = tmp_path / "masks" / "sample_00000.pgm"
        write_pgm(mask_file, np.full((height, width), 255, dtype=np.uint8))
        message = f"{mask_file}: mask is {width}x{height}, map is 32x32"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_goals_file_without_two_goals(self, tmp_path):
        generate_dataset(2, 5, tmp_path, width=32, height=32)
        grid = load_map(tmp_path / "maps" / "sample_00000.map")
        goals_file = tmp_path / "goals" / "sample_00000.csv"
        goals = list(load_goals(goals_file))
        x, y = next(c for c in grid.free_cells().tolist() if Point(c[0] + 0.5, c[1] + 0.5) not in goals)
        save_goals(goals_file, GoalSet(goals + [Point(x + 0.5, y + 0.5)]))
        message = f"{goals_file}: a sample needs 2 goals, got 3"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_names_the_sample_of_a_blocked_goal(self, tmp_path):
        generate_dataset(2, 5, tmp_path, width=32, height=32)
        grid = load_map(tmp_path / "maps" / "sample_00000.map")
        goals_file = tmp_path / "goals" / "sample_00000.csv"
        _, b = load_goals(goals_file)
        ys, xs = np.nonzero(grid.cells)
        a = Point(xs[0] + 0.5, ys[0] + 0.5)
        save_goals(goals_file, GoalSet([a, b]))
        message = f"{goals_file}: sample_00000: start ({a.x}, {a.y}) is not free"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_names_the_sample_of_an_unreachable_goal(self, tmp_path):
        generate_dataset(2, 5, tmp_path, width=32, height=32)
        map_file = tmp_path / "maps" / "sample_00000.map"
        grid = load_map(map_file)
        goals_file = tmp_path / "goals" / "sample_00000.csv"
        a, b = load_goals(goals_file)
        cells = grid.cells.copy()
        bx, by = b.cell()
        cells[max(by - 1, 0) : by + 2, max(bx - 1, 0) : bx + 2] = True
        cells[by, bx] = False
        save_map(map_file, GridMap(cells))
        message = f"{goals_file}: sample_00000: no grid path from cell {a.cell()} to cell {b.cell()}"
        with pytest.raises(Unreachable, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("{", "not valid JSON"),
        ('{"samples": [{"id": "sample_00000", "map": "m.map", "goals": "g.csv"}]}',
         "samples[0] needs string fields id, map, goals, mask"),
    ])
    def test_bad_manifest_names_the_file(self, tmp_path, text, message):
        generate_dataset(1, 5, tmp_path, width=16, height=16)
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"manifest.json: {message}")):
            validate_dataset(tmp_path)

    @staticmethod
    def edit_manifest(out, edit):
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["samples"])
        path.write_text(json.dumps(manifest))
        return path

    def test_validation_refuses_a_repeated_distance_row(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        dist_file = tmp_path / "distances.csv"
        dist_file.write_text("sample_00000,1.0\n" + dist_file.read_text())
        message = f"{dist_file} row 2 repeats row 1: 'sample_00000'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_distance_row_of_no_sample(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        dist_file = tmp_path / "distances.csv"
        dist_file.write_text(dist_file.read_text() + "sample_99999,3.0\n")
        message = f"{dist_file}: sample_99999 is not a manifest sample"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_sample_dropped_from_the_manifest(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        self.edit_manifest(tmp_path, lambda samples: samples.pop())
        message = f"{tmp_path / 'distances.csv'}: sample_00002 is not a manifest sample"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_sample_listed_twice(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        path = self.edit_manifest(tmp_path, lambda samples: samples.append(samples[0]))
        message = f"{path}: sample_00000 listed twice"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_manifest_distance_of_another_value(self, tmp_path):
        manifest = generate_dataset(3, 5, tmp_path, 24, 24)
        stored = manifest["samples"][0]["distance"]
        path = self.edit_manifest(tmp_path, lambda samples: samples[0].update(distance=1.0))
        message = f"{path}: sample_00000 distance 1.0 != {stored} in {tmp_path / 'distances.csv'}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_wrong_split(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        path = self.edit_manifest(tmp_path, lambda samples: samples[1].update(split="nonsense"))
        message = f"{path}: sample_00001 split 'nonsense' != 'test'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda manifest: manifest.update(n=99), "n 99 != 3 samples"),
        (lambda manifest: manifest.pop("n"), "n must be an integer, got None"),
        (lambda manifest: manifest.update(width=7), "sample_00000 map is 24x24, not 7x24"),
        (lambda manifest: manifest.update(height="x"), "height must be an integer, got 'x'"),
        (lambda manifest: manifest.update(seed=5.5), "seed must be an integer, got 5.5"),
        (lambda manifest: manifest.pop("seed"), "seed must be an integer, got None"),
        (lambda manifest: manifest.update(split_ratio="1:1:1"), "split_ratio '1:1:1' != '6:2:2'"),
        (lambda manifest: manifest.pop("split_ratio"), "split_ratio None != '6:2:2'"),
    ], ids=["n=99", "no n", "width=7", "height=x", "seed=5.5", "no seed", "split_ratio=1:1:1",
            "no split_ratio"])
    def test_validation_refuses_a_wrong_manifest_field(self, tmp_path, edit, message):
        generate_dataset(3, 5, tmp_path, 24, 24)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            validate_dataset(tmp_path)

    def test_validation_refuses_a_repeated_manifest_key(self, tmp_path):
        generate_dataset(3, 5, tmp_path, 24, 24)
        path = tmp_path / "manifest.json"
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if '"distance"' in line)
        path.write_text("\n".join(lines[: k + 1] + lines[k:]) + "\n")
        message = f"{path}: key 'distance' repeated in one object"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path)

    @pytest.mark.parametrize("form", ["absolute", "../"])
    @pytest.mark.parametrize("key", ["map", "goals", "mask"])
    def test_validation_refuses_a_file_outside_the_directory(self, tmp_path, key, form):
        # the entry names the same file of a twin dataset beside this one, so
        # only where it lies is wrong
        manifest = generate_dataset(2, 5, tmp_path / "ds", 24, 24)
        generate_dataset(2, 5, tmp_path / "twin", 24, 24)
        local = manifest["samples"][0][key]
        name = str(tmp_path / "twin" / local) if form == "absolute" else f"../twin/{local}"
        path = self.edit_manifest(tmp_path / "ds", lambda samples: samples[0].update({key: name}))
        message = f"{path}: sample_00000 {key} {name!r} is outside the dataset directory"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            validate_dataset(tmp_path / "ds")

    def test_validation_reads_a_file_named_through_its_own_directory(self, tmp_path):
        generate_dataset(2, 5, tmp_path, 24, 24)
        self.edit_manifest(tmp_path, lambda samples: samples[0].update(map="masks/../maps/sample_00000.map"))
        assert validate_dataset(tmp_path) == 2

    def test_rejects_nonpositive_n(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(0, 1, tmp_path)

    def test_rejects_maps_above_the_cap_before_writing(self, tmp_path):
        with pytest.raises(InvalidArgument, match="at most 16777216 cells, got 4097x4096"):
            generate_dataset(1, 1, tmp_path / "ds", width=4097, height=4096)
        assert not (tmp_path / "ds").exists()
