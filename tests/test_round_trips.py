"""Save-then-load round trips for every file format the package writes, and
random bytes fed to every reader."""

import json
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multigoal import GoalSet, GridMap, Point, RegionMask, WeightMatrix, save_goals, save_map
from multigoal.dataset import generate_dataset, validate_dataset
from multigoal.errors import FormatError, MultigoalError
from multigoal.estimators import GridOracleEstimator, export_predictions, load_external_predictions
from multigoal.grid import load_goals, load_map, read_json_object
from multigoal.pgm import read_pgm, write_pgm
from multigoal.planner import PathPolyline, load_path, save_path
import oracle_reference as ref

finite = st.floats(allow_nan=False, allow_infinity=False)


def round_trip(save, load, value, name):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        save(path, value)
        return load(path)


@st.composite
def grids(draw):
    w = draw(st.integers(2, 12))
    h = draw(st.integers(2, 12))
    cells = np.array(draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))).reshape(h, w)
    assume(not cells.all())
    return GridMap(cells)


@settings(max_examples=50, deadline=None)
@given(grids(), st.sampled_from(["m.map", "m.pgm"]))
def test_map_round_trip(grid, name):
    assert round_trip(save_map, load_map, grid, name) == grid


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=8, unique=True))
def test_goals_round_trip(pairs):
    goals = GoalSet([Point(x, y) for x, y in pairs])
    assert round_trip(save_goals, load_goals, goals, "g.csv") == goals


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=8))
def test_path_round_trip(pairs):
    poly = PathPolyline([Point(x, y) for x, y in pairs])
    assert round_trip(save_path, load_path, poly, "p.csv") == poly


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.data())
def test_mask_round_trip(w, h, data):
    raster = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h)), dtype=np.uint8
    ).reshape(h, w)
    mask = RegionMask.from_u8(raster)  # every value is a multiple of 1/255
    back = round_trip(lambda p, m: write_pgm(p, m.to_u8()), read_pgm, mask, "m.pgm")
    assert RegionMask.from_u8(back) == mask


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.data())
def test_weight_csv_round_trip(m, data):
    weight = st.floats(min_value=1e-300, max_value=1e300)
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w[i, j] = w[j, i] = data.draw(weight)
    matrix = WeightMatrix(w)
    assert round_trip(lambda p, x: x.to_csv(p), WeightMatrix.from_csv, matrix, "w.csv") == matrix


@st.composite
def weight_matrices(draw):
    m = draw(st.integers(2, 5))
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w[i, j] = w[j, i] = draw(st.floats(min_value=1e-300, max_value=1e300))
    return WeightMatrix(w)


point_lists = st.lists(st.tuples(finite, finite), min_size=2, max_size=6)
csv_number = finite.map(str)  # str() is how write_rows writes a float
xy_line = st.tuples(csv_number, csv_number).map(",".join)
# (values, save, load, file name, an appended line, a changed number)
TEXT_FORMATS = {
    "map": (grids(), save_map, load_map, "m.map", st.text("#.", min_size=1, max_size=13),
            st.integers(-1, 13).map(str)),
    "goals": (point_lists.filter(lambda ps: len(set(ps)) == len(ps)).map(
                  lambda ps: GoalSet([Point(x, y) for x, y in ps])),
              save_goals, load_goals, "g.csv", xy_line, csv_number),
    "path": (point_lists.map(lambda ps: PathPolyline([Point(x, y) for x, y in ps])),
             save_path, load_path, "p.csv", xy_line, csv_number),
    "weights": (weight_matrices(), lambda p, w: w.to_csv(p), WeightMatrix.from_csv, "w.csv",
                st.lists(csv_number, min_size=1, max_size=6).map(",".join), csv_number),
}


def numbers_in(line):
    """(separators, fields, indices of the fields that are numbers) of a line
    split at every comma and space."""
    seps = re.findall("[, ]", line)
    fields = re.split("[, ]", line)
    numeric = []
    for k, field in enumerate(fields):
        try:
            float(field)
            numeric.append(k)
        except ValueError:
            pass
    return seps, fields, numeric


def joined(seps, fields):
    """The line that numbers_in split."""
    return "".join(field + sep for field, sep in zip(fields, seps + [""]))


def one_edit(data, lines, appended, number):
    """lines with one drawn edit: a line duplicated, appended or dropped, or one
    number replaced by another of the file's numbers or a drawn one. number is
    the strategy of a drawn number, or a tuple of one per CSV column; with a
    tuple, the replacement comes from the replaced number's column."""
    lines = list(lines)
    k = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["duplicate", "append", "drop", "number"]))
    if edit == "duplicate":
        lines.insert(k, lines[k])
    elif edit == "append":
        lines.append(data.draw(appended))
    elif edit == "drop":
        del lines[k]
    else:
        found = [(n, i) for n, line in enumerate(lines) for i in numbers_in(line)[2]]
        n, i = data.draw(st.sampled_from(found))
        if isinstance(number, tuple):
            found = [(row, column) for row, column in found if column == i]
            number = number[i]
        existing = [numbers_in(lines[row])[1][column] for row, column in found]
        seps, fields, _ = numbers_in(lines[n])
        fields[i] = data.draw(st.one_of(st.sampled_from(existing), number))
        lines[n] = joined(seps, fields)
    return lines


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_edit_is_refused_or_saved_back(fmt, data):
    """After one edit, a text file either fails to load with a FormatError that
    names it, or loads to a value whose save writes the edited file back:
    no reader accepts what a save would not have written."""
    values, save, load, name, appended, number = TEXT_FORMATS[fmt]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        save(path, data.draw(values))
        with open(path) as f:
            edited = one_edit(data, f.read().splitlines(), appended, number)
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in edited))
        try:
            value = load(path)
        except FormatError as exc:
            assert path in str(exc)
            return
        save(path, value)
        with open(path) as f:
            assert f.read().splitlines() == edited


# An 8x8 map whose wall bends the oracle's paths, for the prediction directory
PREDICTION_MAP = GridMap(np.array([[c == "#" for c in row] for row in [
    "........", "........", "..####..", "........", "....#...", "....#...", "........", "........",
]]))
goal_index = st.integers(-1, 5).map(str)


def mask_edit(data, raw, raster_size):
    """The bytes of a PGM file with one drawn edit: bytes appended, the last
    byte dropped, or one raster byte changed."""
    edit = data.draw(st.sampled_from(["append", "drop", "byte"]))
    if edit == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=4))
    if edit == "drop":
        return raw[:-1]
    k = data.draw(st.integers(len(raw) - raster_size, len(raw) - 1))
    return raw[:k] + bytes([data.draw(st.integers(0, 255))]) + raw[k + 1 :]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_edit_to_a_prediction_directory_is_refused_or_saved_back(data):
    """After one edit to distances.csv or to one mask of an external: directory,
    loading it and estimating on the same map and goals either raises a
    MultigoalError that names one of its files, or export_predictions of what
    was loaded writes the edited directory back."""
    grid = PREDICTION_MAP
    cells = data.draw(st.lists(st.sampled_from(grid.free_cells().tolist()),
                               min_size=3, max_size=4, unique_by=tuple))
    goals = GoalSet([Point(x + 0.5, y + 0.5) for x, y in cells])
    with tempfile.TemporaryDirectory() as d:
        export_predictions(d, grid, goals, GridOracleEstimator())
        files = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                files[name] = f.read()
        name = data.draw(st.sampled_from(["distances.csv", "a mask"]))
        if name == "distances.csv":
            row = st.tuples(goal_index, goal_index, csv_number).map(",".join)
            lines = one_edit(data, files[name].decode().splitlines(), row,
                             (goal_index, goal_index, csv_number))
            files[name] = "".join(line + "\n" for line in lines).encode()
        else:
            name = data.draw(st.sampled_from(sorted(set(files) - {"distances.csv"})))
            files[name] = mask_edit(data, files[name], grid.width * grid.height)
        with open(os.path.join(d, name), "wb") as f:
            f.write(files[name])
        try:
            export_predictions(d, grid, goals, load_external_predictions(d))
        except MultigoalError as exc:
            assert any(os.path.join(d, other) in str(exc) for other in files)
            return
        for name, raw in files.items():
            with open(os.path.join(d, name), "rb") as f:
                assert f.read() == raw, name


@pytest.fixture(scope="module")
def three_samples(tmp_path_factory):
    out = tmp_path_factory.mktemp("three")
    generate_dataset(3, 5, out, width=16, height=16)
    return out


sample_id = st.sampled_from(["sample_00000", "sample_00001", "sample_00002", "sample_00003"])
# per file: (an appended line, a changed number); an empty line is a blank line
DATASET_EDITS = {
    "distances.csv": (st.one_of(st.just(""), st.tuples(sample_id, csv_number).map(",".join)),
                      csv_number),
    "manifest.json": (st.sampled_from(["", "  ", "}", "{}", '"n": 3']),
                      st.one_of(st.integers(-1, 17).map(str), csv_number)),
    "map": (st.text("#.", max_size=17), st.integers(-1, 17).map(str)),
    "goals": (st.one_of(st.just(""), xy_line), csv_number),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_edit_to_a_dataset_directory_is_refused_or_harmless(three_samples, data):
    """After one edit to distances.csv, manifest.json or one map or goals file
    of a generated dataset, validate_dataset either raises a MultigoalError
    that names a file of the directory, or the edit changed nothing it
    checks: a blank line, rows of distances.csv in another order, the
    manifest's seed (which only generating the dataset again could check), a
    goal moved inside its cell, or a goal moved to a cell whose path the
    sample's distance and mask still describe."""
    with tempfile.TemporaryDirectory() as d:
        shutil.copytree(three_samples, d, dirs_exist_ok=True)
        files = sorted(os.path.relpath(os.path.join(root, name), d)
                       for root, _, names in os.walk(d) for name in names)
        kind = data.draw(st.sampled_from(sorted(DATASET_EDITS)))
        name = kind
        if kind in ("map", "goals"):
            folder = {"map": "maps", "goals": "goals"}[kind]
            name = data.draw(st.sampled_from([f for f in files if f.startswith(folder + os.sep)]))
        path = os.path.join(d, name)
        with open(path) as f:
            lines = f.read().splitlines()
        edited = one_edit(data, lines, *DATASET_EDITS[kind])
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in edited))
        try:
            validate_dataset(d)
        except MultigoalError as exc:
            assert any(os.path.join(d, other) in str(exc) for other in files)
            return
        if kind == "distances.csv":
            assert sorted(filter(None, edited)) == sorted(filter(None, lines))
        elif kind == "manifest.json":
            before, after = json.loads("\n".join(lines)), json.loads("\n".join(edited))
            assert {**after, "seed": before["seed"]} == before
        elif kind == "map":
            with open(path, "w") as f:
                f.write("".join(line + "\n" for line in lines))
            assert load_map(path) == load_map(os.path.join(three_samples, name))
        else:
            goals = load_goals(path)
            before = load_goals(os.path.join(three_samples, name))
            if [p.cell() for p in goals] != [p.cell() for p in before]:
                stem = os.path.splitext(os.path.basename(name))[0]
                grid = load_map(os.path.join(d, "maps", stem + ".map"))
                ((cells, length),) = ref.shortest_paths_from(grid, goals[0], [goals[1]])
                with open(os.path.join(d, "distances.csv")) as f:
                    assert f"{stem},{length!r}" in f.read().splitlines()
                raster = read_pgm(os.path.join(d, "masks", stem + ".pgm"))
                assert all(raster[y, x] == 255 for x, y in cells)


# Pieces of the text formats, so that the draws also reach the checks behind
# the ASCII test: numbers, separators, rare line ends and non-ASCII bytes.
_TOKENS = [b"0", b"1", b"2", b"-1", b"0.5", b"1e400", b"nan", b",", b" ", b"\n", b"\r",
           b"\x0b", b"\x0c", b"\x1c", b".", b"#", b"=", b"P5", b"255", b"\x80", b"\xff"]
noise = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(_TOKENS), max_size=60).map(b"".join),
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    generate_dataset(1, 3, out, width=16, height=16)
    return out


def solution_legs(path):
    """The leg entries of a pipeline solution.json, read as render reads them."""
    return read_json_object(path, "legs", ("file",))["legs"]


# (reader, file name it reads); load_external_predictions takes the directory
# that holds its file
READERS = [
    (load_map, "m.map"),
    (load_map, "m.pgm"),
    (read_pgm, "r.pgm"),
    (load_goals, "g.csv"),
    (load_path, "p.csv"),
    (WeightMatrix.from_csv, "w.csv"),
    (load_external_predictions, "distances.csv"),
    (solution_legs, "solution.json"),
]


@pytest.mark.parametrize("reader, name", READERS, ids=lambda v: getattr(v, "__name__", v))
@settings(max_examples=150, deadline=None)
@given(data=noise)
@example(data=b"-2 2\n\n\n")  # a negative map width
@example(data=b"2 2\n##\n##\n")  # a map with no free cell
@example(data=b"[" * 100_000)  # JSON nested beyond the parser's depth
def test_random_bytes_raise_only_format_error(reader, name, data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "wb") as f:
            f.write(data)
        try:
            reader(d if name == "distances.csv" else path)
        except FormatError as exc:
            assert path in str(exc)


@settings(max_examples=100, deadline=None)
@given(data=noise)
def test_random_distances_fail_validation_with_format_error(dataset_dir, data):
    path = os.path.join(dataset_dir, "distances.csv")
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(FormatError) as info:
        validate_dataset(dataset_dir)
    assert path in str(info.value)
