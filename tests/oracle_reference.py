"""Plain versions of the oracle's grid search, Held-Karp table and region
dilation, the references that the package's two-queue table-driven search,
layered Held-Karp and disk-row dilation are tested against for exact
equality. The search here stays a textbook Dijkstra on one heap of
(key, push counter, cell) entries."""

import collections
import heapq
import math

import numpy as np
from scipy import ndimage

from multigoal.estimators import NEIGHBORS_8


def shortest_paths_from(grid, a, targets, tally=None):
    """Dijkstra with the free and corner tests in the inner loop.

    Same contract as multigoal.estimators.shortest_paths_from: one
    (cell path, length) per target, or None for an unreachable target.

    With a collections.Counter as tally, tally["ties"] counts the pops whose
    entry has an equal key with a live entry of the other move kind
    (orthogonal or diagonal) still in the heap: the pops where the push
    counter, not the key, decides which of two cells comes first.
    """
    pw = grid.width + 2
    padded = np.ones((grid.height + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = grid.cells
    free = (~padded).ravel().tolist()
    # (id offset, step cost, x offset, y offset); both offsets are nonzero only on diagonals
    moves = [(dy * pw + dx, cost, dx, dy * pw) for dx, dy, cost in NEIGHBORS_8]

    def cell_id(p):
        x, y = p.cell()
        return (y + 1) * pw + x + 1

    start = cell_id(a)
    pending = {cell_id(b): None for b in targets}
    left = len(pending)
    n = len(free)
    dist = [math.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    done = [False] * n
    counter = 0
    heap = [(0.0, counter, start)]
    # live entries by (key, diagonal), and the move kind of each cell's live entry
    live = collections.Counter()
    diagonal = [None] * n
    while heap:
        d, _, c = heapq.heappop(heap)
        if done[c]:
            continue
        if tally is not None and diagonal[c] is not None:
            live[d, diagonal[c]] -= 1
            tally["ties"] += live[d, not diagonal[c]] > 0
        if c in pending:
            pending[c] = d
            left -= 1
            if not left:
                break
        done[c] = True
        for off, cost, ox, oy in moves:
            nc = c + off
            if not free[nc]:
                continue
            if ox and oy and not (free[c + ox] and free[c + oy]):
                continue
            nd = d + cost
            if nd < dist[nc]:
                if tally is not None:
                    if diagonal[nc] is not None:  # its old entry goes stale
                        live[dist[nc], diagonal[nc]] -= 1
                    diagonal[nc] = cost != 1.0
                    live[nd, diagonal[nc]] += 1
                dist[nc] = nd
                parent[nc] = c
                counter += 1
                heapq.heappush(heap, (nd, counter, nc))

    out = []
    for b in targets:
        c = cell_id(b)
        length = pending[c]
        if length is None:
            out.append(None)
            continue
        path = [c]
        while c != start:
            c = parent[c]
            path.append(c)
        out.append(([(c % pw - 1, c // pw - 1) for c in reversed(path)], length))
    return out


def held_karp_table(wt):
    """dp[mask, j]: cheapest path 0 -> ... -> j over exactly the vertices in
    mask, filled one odd mask at a time."""
    m = wt.shape[0]
    full = (1 << m) - 1
    dp = np.full((full + 1, m), np.inf)
    dp[1][0] = 0.0
    bits = 1 << np.arange(m)
    for mask in range(3, full + 1, 2):
        js = [j for j in range(1, m) if mask >> j & 1]
        prev = mask ^ bits[js]
        dp[mask, js] = (dp[prev] + wt[js]).min(axis=1)
    return dp


def held_karp_order(wt):
    """The tour that held_karp reads from held_karp_table(wt): extend the
    prefix with the smallest vertex whose completion bound is minimal."""
    m = wt.shape[0]
    dp = held_karp_table(wt)
    order = [0]
    rem_mask = (1 << m) - 2
    j = 0
    while rem_mask:
        best_v, best_bound = -1, math.inf
        for v in range(1, m):
            if rem_mask >> v & 1 and wt[j, v] + dp[rem_mask | 1, v] < best_bound:
                best_v, best_bound = v, wt[j, v] + dp[rem_mask | 1, v]
        order.append(best_v)
        rem_mask ^= 1 << best_v
        j = best_v
    return tuple(order)


def dilate_path_to_region(grid, path, radius):
    """Free cells within radius of a path cell, from a full-map EDT."""
    on_path = np.zeros((grid.height, grid.width), dtype=bool)
    for x, y in path:
        on_path[y, x] = True
    return (ndimage.distance_transform_edt(~on_path) <= radius) & ~grid.cells
