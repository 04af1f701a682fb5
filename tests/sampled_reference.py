"""Sampled collision check, the reference that GridMap.segment_clear is tested against."""

import math

import numpy as np

from multigoal.errors import InvalidArgument


def segment_free(grid, a, b, resolution):
    """True iff every sample at spacing <= resolution along ab lies in free cells.

    Endpoints are sorted canonically before interpolation so the result is
    symmetric in (a, b). Sample count is ceil(|ab| / resolution) + 1.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    for p in (a, b):
        if not (0.0 <= p.x < grid.width and 0.0 <= p.y < grid.height):
            raise InvalidArgument(f"segment endpoint ({p.x}, {p.y}) out of bounds")
    if (b.x, b.y) < (a.x, a.y):
        a, b = b, a
    dist = a.distance_to(b)
    n = int(math.ceil(dist / resolution)) + 1
    t = np.linspace(0.0, 1.0, n)
    xs = a.x + t * (b.x - a.x)
    ys = a.y + t * (b.y - a.y)
    cols = np.floor(xs).astype(np.intp)
    rows = np.floor(ys).astype(np.intp)
    return not grid.cells[rows, cols].any()
