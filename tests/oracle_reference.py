"""Plain versions of the oracle's grid search, Held-Karp table and region
dilation, the references that the package's two-queue table-driven search,
layered Held-Karp and disk-row dilation are tested against for exact
equality. The search here stays a textbook Dijkstra on one heap of
(key, push counter, cell) entries.

two_queue_shortest_paths_from is the package's search as it was before each
settled cell checked only the moves its arrival leaves open: every legal
move of every settled cell is checked. It is the reference for the final
dist lists of bounded searches, which the heap search does not take."""

import collections
import heapq
import math
from collections import deque
from functools import lru_cache

import numpy as np
from scipy import ndimage

from multigoal.estimators import NEIGHBORS_8, SQRT2, _move_codes
from multigoal.grid import check_endpoints


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


@lru_cache(maxsize=16)
def move_table(pw: int) -> tuple:
    """For each 8-bit move code, the id offsets of its set orthogonal moves and
    of its set diagonal moves, each in NEIGHBORS_8 order, for ids on a map
    padded to width pw."""
    moves = [(dy * pw + dx, cost) for dx, dy, cost in NEIGHBORS_8]

    def offsets(code: int, step: float) -> tuple:
        return tuple(off for k, (off, cost) in enumerate(moves) if code >> k & 1 and cost == step)

    return tuple((offsets(code, 1.0), offsets(code, SQRT2)) for code in range(256))


def two_queue_shortest_paths_from(grid, a, targets, dist: list | None = None) -> list:
    """Shortest 8-connected cell-center paths from the cell of a to each target's cell.

    Orthogonal steps cost 1, diagonal steps sqrt(2); a diagonal move is
    forbidden when either adjacent orthogonal cell is blocked. Cells are popped
    from two FIFO queues, one for orthogonal and one for diagonal steps, in
    the order of a heap with FIFO tie-breaking; with the fixed neighbor order
    this breaks every tie, so every returned path is deterministic. The
    search stops once every target cell is settled.
    Since a settled cell never gets a new parent, and the run up to settling
    a target is the run a single-target search would make, each path equals
    the one a search for that target alone returns.

    dist, when given, is a bound list from _bounded_dist: each padded cell
    id's starting distance (all inf when None). A push into a cell is kept
    only below it, so a finite entry drops every push at or above it; that
    changes no path that the bound keeps (see grid_shortest_path). dist is
    consumed.

    Returns one (cell path, length) per target, in target order, or None for
    a target that cannot be reached. Cells are ids on the map padded by a
    one-cell blocked border; each cell's legal moves come from its move code
    (see _move_codes), so the inner loop tests neither bounds nor obstacles.
    """
    for b in targets:
        check_endpoints(grid, a, b)
    pw = grid.width + 2
    code = _move_codes(grid)
    table = move_table(pw)

    def cell_id(p):
        x, y = p.cell()
        return (y + 1) * pw + x + 1

    start = cell_id(a)
    pending: dict[int, float | None] = {cell_id(b): None for b in targets}
    left = len(pending)
    n = len(code)
    if dist is None:
        dist = [math.inf] * n
    dist[start] = 0.0
    parent = [-1] * n
    # The heap of a plain Dijkstra, as two FIFO queues of (key, cell): every
    # key is d + 1 or d + sqrt(2) for the d just popped, popped keys never
    # decrease and float addition is monotone, so each queue is already in
    # (key, push order) and the heap minimum is the smaller head. On equal
    # keys the diagonal head came from a strictly smaller d, since
    # fl(d + sqrt(2)) > fl(d + 1) for d far below 2**51 (grid.MAX_CELLS keeps
    # every distance there), so it was pushed first and wins the tie. Keys
    # into a cell strictly decrease; an entry is stale unless its key is the
    # cell's distance.
    ortho: deque[tuple[float, int]] = deque()
    diag: deque[tuple[float, int]] = deque()
    push_ortho, pop_ortho = ortho.append, ortho.popleft
    push_diag, pop_diag = diag.append, diag.popleft
    d, c = 0.0, start

    while True:
        if d == dist[c]:
            if c in pending:
                pending[c] = d
                left -= 1
                if not left:
                    break
            ortho_moves, diag_moves = table[code[c]]
            nd = d + 1.0
            for off in ortho_moves:
                nc = c + off
                if nd < dist[nc]:
                    dist[nc] = nd
                    parent[nc] = c
                    push_ortho((nd, nc))
            nd = d + SQRT2
            for off in diag_moves:
                nc = c + off
                if nd < dist[nc]:
                    dist[nc] = nd
                    parent[nc] = c
                    push_diag((nd, nc))
        if diag and (not ortho or diag[0][0] <= ortho[0][0]):
            d, c = pop_diag()
        elif ortho:
            d, c = pop_ortho()
        else:
            break

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
