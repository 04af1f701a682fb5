"""Save-then-load round trips for every file format the package writes."""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multigoal import GoalSet, GridMap, Point, RegionMask, WeightMatrix, save_goals, save_map
from multigoal.grid import load_goals, load_map
from multigoal.pgm import read_pgm, write_pgm
from multigoal.planner import PathPolyline, load_path, save_path

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
