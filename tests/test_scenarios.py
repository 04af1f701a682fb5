"""The seeded scenario families the acceptance suite draws from, pinned map
for map: a change to their layout or RNG draws shows up here first."""

import hashlib

import pytest

from scenario_families import comb_map, narrow_passage_instance


def digest(cells, *points):
    h = hashlib.sha256(cells.tobytes())
    for p in points:
        h.update(f"{p.x!r},{p.y!r};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, expected", [
    (20240101, "6c1b3a4d15e56326321a472dc25910a8fbb6a18293ad708d08655f732d14f5c4"),
    (20240137, "1b2a9e74316eff0613a5fb5876a07f57fbd1ed6caaffc65be3cab386cd35f597"),
])
def test_comb_map_golden(seed, expected):
    grid = comb_map(seed)
    assert grid.cells.shape == (64, 64)
    assert digest(grid.cells) == expected


@pytest.mark.parametrize("seed, expected", [
    (20240300, "2cbb78a04688238a527937e3d7d4690849afd19e66cdaa5b3da9114f3f98d927"),
    (20240349, "f2ab9576d0baa16adc8ecdbf6a59789e93230acf14349d66a346a0bd89a203e9"),
])
def test_narrow_passage_instance_golden(seed, expected):
    grid, start, goal = narrow_passage_instance(seed)
    assert grid.cells.shape == (64, 64)
    assert digest(grid.cells, start, goal) == expected
