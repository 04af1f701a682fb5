"""Visiting-order computation on symmetric weight matrices.

Small instances are solved exactly by Held-Karp dynamic programming over
vertex subsets; larger ones by nearest-neighbor construction followed by
2-opt and Or-opt local search. Tours are undirected closed cycles stored in
canonical form: vertex 0 first, second vertex smaller than the last. Every
solver takes its weights as an estimators.WeightMatrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .grid import check_integer

EXACT_LIMIT = 16  # Held-Karp memory bound: 2^16 x 16 float table
EXACT_THRESHOLD = 13  # solve_tsp runs Held-Karp up to this many vertices
IMPROVE_EPS = 1e-12


class Tour:
    """A closed visiting order over vertices 0..M-1, canonicalized on construction."""

    def __init__(self, order):
        seq = list(order)
        for v in seq:
            check_integer(v, "tour vertex")
        seq = [int(v) for v in seq]
        m = len(seq)
        if m < 2 or sorted(seq) != list(range(m)):
            raise InvalidArgument(f"order {seq} is not a permutation of 0..{max(m - 1, 0)}")
        self.order = _canonical(seq)
        self.m = m

    def __eq__(self, other):
        return isinstance(other, Tour) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"Tour{self.order}"

    def edges(self):
        """The M undirected edges of the closed cycle, in visiting order."""
        o = self.order
        return [(o[k], o[(k + 1) % self.m]) for k in range(self.m)]


def _canonical(seq: list[int]) -> tuple[int, ...]:
    i0 = seq.index(0)
    rot = seq[i0:] + seq[:i0]
    if len(rot) > 2 and rot[1] > rot[-1]:
        rot = [0] + rot[:0:-1]
    return tuple(rot)


@dataclass(frozen=True)
class TspResult:
    tour: Tour
    cost: float
    method: str  # "EXACT" or "HEURISTIC"


def tour_cost(w, t: Tour) -> float:
    """Sum of edge weights around the closed cycle (M=2 counts its edge twice)."""
    order = t.order
    if len(order) != w.m:
        raise InvalidArgument(f"tour over {len(order)} vertices, matrix has {w.m}")
    total = 0.0
    for k in range(len(order)):
        total += w[order[k], order[(k + 1) % len(order)]]
    return total


def _held_karp_table(wt: np.ndarray) -> np.ndarray:
    """dp[mask, j]: min cost of a path 0 -> ... -> j visiting exactly the
    vertices in mask (bit 0 always set, bit j set); inf elsewhere.

    Each entry is the minimum over i of dp[mask ^ bit j, i] + w[j, i]. The
    table is filled by layers: the odd masks with k bits among 1..m-1, for
    k = 1..m-1, read only layer k-1.
    """
    m = wt.shape[0]
    dp = np.full((1 << m, m), np.inf)
    dp[1, 0] = 0.0
    masks = np.arange(1, 1 << m, 2)
    size = np.zeros(len(masks), dtype=np.intp)
    for j in range(1, m):
        size += masks >> j & 1
    for k in range(1, m):
        layer = masks[size == k]
        for j in range(1, m):
            sel = layer[layer >> j & 1 == 1]
            # wt is symmetric, so row j holds the costs into j
            dp[sel, j] = (dp[sel ^ (1 << j)] + wt[j]).min(axis=1)
    return dp


def held_karp(w) -> tuple[Tour, float]:
    """Exact minimum-cost tour by dynamic programming over vertex subsets.

    Ties are broken toward the lexicographically smallest canonical order.
    Raises InvalidArgument beyond 16 vertices.
    """
    m = w.m
    if m > EXACT_LIMIT:
        raise InvalidArgument(f"Held-Karp limited to {EXACT_LIMIT} vertices, got {m}")

    wt = w.w
    dp = _held_karp_table(wt)
    full = (1 << m) - 1

    # Forward greedy reconstruction. With exact symmetry, the cost of
    # completing a prefix that ends at j with unvisited set R is
    # dp[bits(R) | bit0][v] for the reversed completion path, so the bound for
    # extending with v is acc + w[j][v] + dp[rem | 1][v]; picking the smallest
    # v among minimizers yields the lexicographically smallest optimal order.
    order = [0]
    rem_mask = full & ~1
    j = 0
    while rem_mask:
        best_v = -1
        best_bound = math.inf
        comp = dp[rem_mask | 1]
        for v in range(1, m):
            if not rem_mask >> v & 1:
                continue
            bound = wt[j, v] + comp[v]
            if bound < best_bound:
                best_bound = bound
                best_v = v
        order.append(best_v)
        rem_mask ^= 1 << best_v
        j = best_v

    t = Tour(order)
    return t, tour_cost(w, t)


def nearest_neighbor(w, start: int = 0) -> Tour:
    """Greedy construction from a start vertex; ties go to the smaller index."""
    if not 0 <= start < w.m:
        raise InvalidArgument(f"start vertex {start} out of range for m={w.m}")
    wl = w.w.tolist()
    order = [start]
    remaining = [v for v in range(w.m) if v != start]
    cur = start
    while remaining:
        nxt = min(remaining, key=lambda v: (wl[cur][v], v))
        order.append(nxt)
        remaining.remove(nxt)
        cur = nxt
    return Tour(order)


def local_search_improve(w, t: Tour) -> Tour:
    """Improve a tour with first-improvement 2-opt and Or-opt (segments 1-3).

    Scans run in deterministic index order and restart after every applied
    move; stops at a local optimum of both neighborhoods. The result never
    costs more than the input.
    """
    order = np.array(t.order)
    while _apply_first_2opt(w.w, order) or _apply_first_oropt(w.w, order):
        pass
    return Tour(order.tolist())


def _by_position(wt: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights between tour positions, tw[i, j] = wt[order[i], order[j]],
    and each position's edge to its successor, tw[i, (i + 1) % m]."""
    tw = wt[order][:, order]
    return tw, np.append(tw.diagonal(1), tw[-1, 0])


def _apply_first_2opt(wt: np.ndarray, order: np.ndarray) -> bool:
    """Apply the first improving 2-opt move in (i, j) row-major order.

    Every move's delta is computed at once, in the float order of
    w[a, c] + w[b, d] - w[a, b] - w[c, d] for the edges (a, b) leaving
    position i and (c, d) leaving position j.
    """
    m = len(order)
    tw, succ = _by_position(wt, order)
    delta = tw[:-1] + np.roll(tw[1:], -1, axis=1)
    delta -= succ[:-1, None]
    delta -= succ
    # the moves are j >= i + 2, less the reversal of the whole tail, which is
    # a reflection, not a move
    hits = np.triu(delta < -IMPROVE_EPS, 2)
    hits[0, m - 1] = False
    first = int(hits.argmax())
    if not hits.flat[first]:
        return False
    i, j = divmod(first, m)
    order[i + 1 : j + 1] = order[j:i:-1].copy()
    return True


@functools.lru_cache(maxsize=64)
def _oropt_moves(m: int, seg_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into an (m, m) position table of w[u, s0], w[s1, v] and
    w[u, v] for every Or-opt move (p, g).

    The segment runs from position p (s0) to p + seg_len - 1 (s1), for
    p = 1..n with n = m - seg_len. rest, the tour less the segment, holds the
    slot's ends u at g - 1 and v at g mod n, for g = 1..n.
    """
    n = m - seg_len
    p = np.arange(1, n + 1)[:, None]
    g = np.arange(1, n + 1)
    u = g - 1 + seg_len * (g - 1 >= p)
    v = g % n + seg_len * (g % n >= p)
    out = (u * m + p, (p + seg_len - 1) * m + v, u * m + v)
    for a in out:
        a.setflags(write=False)
    return out


def _apply_first_oropt(wt: np.ndarray, order: np.ndarray) -> bool:
    """Apply the first improving Or-opt move: by segment length, then segment
    start p, then insertion slot g.

    Every move's delta is computed at once, in the float order of
    w[u, s0] + w[s1, v] - w[u, v] - (w[prev, s0] + w[s1, next] - w[prev, next]).
    """
    m = len(order)
    tw, succ = _by_position(wt, order)
    for seg_len in (1, 2, 3):
        if seg_len >= m - 1:
            break
        n = m - seg_len
        # prev sits at p - 1 and next at (p + seg_len) % m, for p = 1..n
        prev = np.arange(n)
        gain = succ[:n] + succ[seg_len:]
        gain -= tw[prev, (prev + seg_len + 1) % m]
        us0, s1v, uv = _oropt_moves(m, seg_len)
        delta = tw.take(us0) + tw.take(s1v)
        delta -= tw.take(uv)
        delta -= gain[:, None]
        # the segment's own slot (g == p) is no move, yet needs no mask: its
        # delta is the gain less itself, never an improvement
        hits = delta < -IMPROVE_EPS
        first = int(hits.argmax())
        if hits.flat[first]:
            p, g = divmod(first, n)
            p, g = p + 1, g + 1
            rest = np.concatenate((order[:p], order[p + seg_len :]))
            order[:] = np.concatenate((rest[:g], order[p : p + seg_len], rest[g:]))
            return True
    return False


def solve_tsp(w) -> TspResult:
    """Visiting order for a weight matrix: exact up to EXACT_THRESHOLD vertices, else heuristic."""
    if w.m <= EXACT_THRESHOLD:
        t, cost = held_karp(w)
        return TspResult(t, cost, "EXACT")
    t = local_search_improve(w, nearest_neighbor(w))
    return TspResult(t, tour_cost(w, t), "HEURISTIC")
