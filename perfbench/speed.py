"""The host's current speed, from a fixed reference kernel that never calls the package.

The shared host this benchmark runs on changes speed by tens of percent over
minutes, and the package's wall time follows it. The harness therefore times
the reference kernel between instances and scales each instance's wall time
by ``REFERENCE_S`` over the kernel's time around it. A scaled time reads as
wall seconds on a host where the kernel takes ``REFERENCE_S``. The kernel
lives here, not in ``multigoal``, so a change to the package cannot move it;
only the host's speed does.

The kernel mixes interpreter work whose slowdown on a loaded host tracks the
workloads' own: building tuples, strings and a dict (half its time), integer
arithmetic, and a dict-and-heap Dijkstra like ``grid_shortest_path``. In ten
runs of each workload on a 2-vCPU host whose speed moved by up to 1.5x, the
log of the median instance time rose by 0.9-1.15 times the log of the
kernel's time on ``oracle-guided``, ``rrt-star`` and ``dataset``.

The garbage collector is off while the kernel runs. With it on, a third of
the kernel's time went to collections whose cost grows with every object
the process holds, so a package that kept more objects alive would have
slowed the kernel and read as faster.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# The kernel's time at which a scaled time equals wall time; about its fastest on a 2-vCPU cloud host.
REFERENCE_S = 0.008
REPEATS = 3  # the fastest of these is one calibration; a preempted repeat does not count

_SIDE = 24
_STEPS = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, 2 ** 0.5), (1, -1, 2 ** 0.5), (-1, 1, 2 ** 0.5), (-1, -1, 2 ** 0.5))
_rng = random.Random(20230804)
_BLOCKED = frozenset((x, y) for x in range(_SIDE) for y in range(_SIDE) if _rng.random() < 0.2) - {(0, 0)}


def _records() -> int:
    rows = [(i, i + 1, str(i)) for i in range(RECORDS)]
    return len({row[2]: row for row in rows})


def _arithmetic() -> int:
    s = 0
    for i in range(ARITHMETIC):
        s = (s + i * i) % 1000003
    return s


def _dijkstra() -> int:
    dist = {(0, 0): 0.0}
    done = set()
    heap = [(0.0, 0, (0, 0))]
    pushed = 0
    while heap:
        d, _, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        x, y = cell
        for dx, dy, w in _STEPS:
            n = (x + dx, y + dy)
            if not (0 <= n[0] < _SIDE and 0 <= n[1] < _SIDE) or n in _BLOCKED:
                continue
            if d + w < dist.get(n, float("inf")):
                dist[n] = d + w
                pushed += 1
                heapq.heappush(heap, (d + w, pushed, n))
    return len(done)


RECORDS = 15000
ARITHMETIC = 30000


def kernel() -> None:
    _records()
    _arithmetic()
    _dijkstra()


def scale(seconds: float, *calibrations: float) -> float:
    """Wall seconds scaled to the reference speed, by the mean of the kernel times around them."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)


def calibrate() -> float:
    """Seconds the reference kernel takes now: the fastest of ``REPEATS`` runs, without collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
