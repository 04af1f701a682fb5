import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigoal import (
    Tour,
    WeightMatrix,
    held_karp,
    local_search_improve,
    nearest_neighbor,
    tour_cost,
)
from multigoal.errors import InvalidArgument
from multigoal.tsp import (
    EXACT_THRESHOLD,
    _apply_first_2opt,
    _apply_first_oropt,
    _held_karp_table,
    solve_tsp,
)
import oracle_reference as ref
import tsp_reference

SQRT2 = math.sqrt(2.0)
FOUR = np.array([[0, 1, 10, 1], [1, 0, 1, 10], [10, 1, 0, 1], [1, 10, 1, 0]], dtype=float)


def random_matrix(rng, m, low=0.1, high=10.0):
    a = rng.uniform(low, high, (m, m))
    w = np.triu(a, 1)
    w = w + w.T
    return WeightMatrix(w)


def brute_force(w):
    """Oracle: enumerate each undirected cycle once, in canonical direction."""
    arr = w.w if isinstance(w, WeightMatrix) else np.asarray(w)
    m = arr.shape[0]
    best_cost, best_order = None, None
    for perm in itertools.permutations(range(1, m)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        cost = 0.0
        for k in range(m):
            cost += arr[order[k], order[(k + 1) % m]]
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    return best_order, best_cost


class TestTour:
    def test_canonicalizes_rotation(self):
        assert Tour((2, 3, 0, 1)).order == (0, 1, 2, 3)

    def test_canonicalizes_reflection(self):
        assert Tour((0, 3, 2, 1)).order == (0, 1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgument, match=re.escape("[0, 1, 1, 3] is not a permutation")):
            Tour((0, 1, 1, 3))

    def test_rejects_missing_vertex(self):
        with pytest.raises(InvalidArgument, match=re.escape("[0, 2, 3, 4] is not a permutation")):
            Tour((0, 2, 3, 4))


class TestTourCost:
    def test_all_3cycles_identical(self):
        rng = np.random.default_rng(0)
        w = random_matrix(rng, 3)
        costs = {tour_cost(w, Tour(p)) for p in itertools.permutations(range(3))}
        assert len(costs) == 1

    def test_all_ones(self):
        w = np.ones((5, 5))
        np.fill_diagonal(w, 0)
        assert tour_cost(WeightMatrix(w), Tour(range(5))) == 5.0

    def test_hand_summed_example(self):
        assert tour_cost(WeightMatrix(FOUR), Tour((0, 1, 2, 3))) == 4.0

    def test_refuses_a_tour_of_another_size(self):
        with pytest.raises(InvalidArgument, match=re.escape("tour over 3 vertices, matrix has 4")):
            tour_cost(WeightMatrix(FOUR), Tour((0, 1, 2)))

    def test_m2_counts_edge_twice(self):
        w = WeightMatrix(np.array([[0.0, 3.5], [3.5, 0.0]]))
        assert tour_cost(w, Tour((0, 1))) == 7.0

    def test_rotation_reversal_invariance(self):
        rng = np.random.default_rng(5)
        w = random_matrix(rng, 7)
        base = list(range(7))
        rng.shuffle(base)
        c0 = tour_cost(w, Tour(base))
        for k in range(7):
            rotated = base[k:] + base[:k]
            assert tour_cost(w, Tour(rotated)) == pytest.approx(c0, rel=1e-12)
            assert tour_cost(w, Tour(rotated[::-1])) == pytest.approx(c0, rel=1e-12)


class TestHeldKarp:
    def test_m2_counts_its_edge_twice(self):
        tour, cost = held_karp(WeightMatrix(np.array([[0.0, 3.5], [3.5, 0.0]])))
        assert tour.order == (0, 1)
        assert cost == 7.0

    def test_m3_unique_cycle(self):
        rng = np.random.default_rng(1)
        w = random_matrix(rng, 3)
        tour, cost = held_karp(w)
        assert tour.order == (0, 1, 2)
        assert cost == pytest.approx(w[0, 1] + w[1, 2] + w[0, 2], rel=1e-12)

    def test_4x4_example(self):
        tour, cost = held_karp(WeightMatrix(FOUR))
        assert tour.order == (0, 1, 2, 3)
        assert cost == 4.0
        # the two alternative undirected cycles both cost 22
        assert tour_cost(WeightMatrix(FOUR), Tour((0, 2, 1, 3))) == 22.0
        assert tour_cost(WeightMatrix(FOUR), Tour((0, 1, 3, 2))) == 22.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(4, 9))
            w = random_matrix(rng, m)
            tour, cost = held_karp(w)
            b_order, b_cost = brute_force(w)
            assert cost == b_cost
            assert tour.order == b_order

    def test_lexicographic_tie_break(self):
        w = np.ones((6, 6))
        np.fill_diagonal(w, 0)
        tour, cost = held_karp(WeightMatrix(w))
        assert tour.order == (0, 1, 2, 3, 4, 5)
        assert cost == 6.0

    def test_too_large(self):
        w = np.ones((17, 17))
        np.fill_diagonal(w, 0)
        with pytest.raises(InvalidArgument, match="Held-Karp limited to 16 vertices, got 17"):
            held_karp(WeightMatrix(w))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = random_matrix(rng, 7)
            t1, c1 = held_karp(w)
            t2, c2 = held_karp(WeightMatrix(w.w * 3.0))
            assert t2.order == t1.order
            assert c2 == pytest.approx(3.0 * c1, rel=1e-12)


@st.composite
def tied_matrices(draw, high=10):
    """Symmetric matrices with few distinct weights, so many tours tie."""
    m = draw(st.integers(3, high))
    values = draw(st.sampled_from([(1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (0.5, SQRT2)]))
    upper = draw(st.lists(st.sampled_from(values), min_size=m * m, max_size=m * m))
    w = np.triu(np.array(upper).reshape(m, m), 1)
    return WeightMatrix(w + w.T)


class TestHeldKarpMatchesReference:
    """The layered table fill against the mask-by-mask loop in
    tests/oracle_reference.py, and against brute force."""

    @settings(max_examples=40, deadline=None)
    @given(tied_matrices())
    def test_table_and_tour(self, w):
        assert np.array_equal(_held_karp_table(w.w), ref.held_karp_table(w.w))
        tour, cost = held_karp(w)
        assert tour == Tour(ref.held_karp_order(w.w))
        assert cost == tour_cost(w, tour)
        heuristic = tour_cost(w, local_search_improve(w, nearest_neighbor(w)))
        assert cost <= heuristic * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(tied_matrices(high=8))
    def test_brute_force(self, w):
        tour, cost = held_karp(w)
        b_order, b_cost = brute_force(w)
        assert cost == pytest.approx(b_cost, rel=1e-12)
        # sums of 1.0/2.0/3.0 are exact, so those ties resolve as brute force does
        if set(np.unique(w.w)) <= {0.0, 1.0, 2.0, 3.0}:
            assert cost == b_cost and tour.order == b_order


class TestNearestNeighbor:
    def test_all_ties_go_ascending(self):
        w = np.ones((6, 6))
        np.fill_diagonal(w, 0)
        assert nearest_neighbor(WeightMatrix(w), 0).order == (0, 1, 2, 3, 4, 5)

    def test_traced_greedy(self):
        assert nearest_neighbor(WeightMatrix(FOUR), 0).order == (0, 1, 2, 3)

    def test_m3(self):
        rng = np.random.default_rng(4)
        assert nearest_neighbor(random_matrix(rng, 3), 0).order == (0, 1, 2)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            nearest_neighbor(WeightMatrix(FOUR), 9)


class TestLocalSearch:
    def square_matrix(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        w = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                w[i, j] = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
        return WeightMatrix(w)

    def test_keeps_optimum(self):
        rng = np.random.default_rng(6)
        w = random_matrix(rng, 8)
        opt, cost = held_karp(w)
        improved = local_search_improve(w, opt)
        assert tour_cost(w, improved) == pytest.approx(cost, rel=1e-12)

    def test_uncrosses_square(self):
        w = self.square_matrix()
        crossing = Tour((0, 2, 1, 3))
        assert tour_cost(w, crossing) == pytest.approx(2 + 2 * math.sqrt(2), rel=1e-12)
        improved = local_search_improve(w, crossing)
        assert improved.order == (0, 1, 2, 3)
        assert tour_cost(w, improved) == pytest.approx(4.0, rel=1e-12)

    def test_never_worse_than_nn(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = random_matrix(rng, 12)
            nn = nearest_neighbor(w, 0)
            improved = local_search_improve(w, nn)
            assert tour_cost(w, improved) <= tour_cost(w, nn) + 1e-12


@st.composite
def tied_tours(draw):
    """A symmetric matrix of m = 3..20 vertices whose weights are rounded to
    steps of 0.25 or 0.1 in [1, high], so that many moves tie, and a start
    tour: nearest-neighbor or a random permutation."""
    m = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([2.0, 5.0, 50.0, 1e5]))
    step = draw(st.sampled_from([0.25, 0.1]))
    w = np.triu(np.round(rng.uniform(1.0, high, (m, m)) / step) * step, 1)
    w = WeightMatrix(w + w.T)
    if draw(st.booleans()):
        return w, nearest_neighbor(w)
    return w, Tour([0, *(rng.permutation(m - 1) + 1).tolist()])


class TestScansMatchReference:
    """The array scans apply the moves the list-based loops apply, in order."""

    @settings(max_examples=150, deadline=None)
    @given(tied_tours())
    def test_every_move(self, instance):
        w, start = instance
        wl = w.w.tolist()
        order = list(start.order)
        ours = np.array(order)
        while True:
            # the loop of local_search_improve: 2-opt first, Or-opt when it finds none
            for scan, reference in (
                (_apply_first_2opt, tsp_reference.apply_first_2opt),
                (_apply_first_oropt, tsp_reference.apply_first_oropt),
            ):
                applied = reference(wl, order)
                assert scan(w.w, ours) == applied
                assert ours.tolist() == order
                if applied:
                    break
            else:
                break
        assert local_search_improve(w, start) == Tour(order)


class TestSolveTsp:
    def test_exact_up_to_the_threshold(self):
        rng = np.random.default_rng(13)
        assert EXACT_THRESHOLD == 13
        assert solve_tsp(random_matrix(rng, EXACT_THRESHOLD)).method == "EXACT"
        assert solve_tsp(random_matrix(rng, EXACT_THRESHOLD + 1)).method == "HEURISTIC"

    def test_m2(self):
        w = WeightMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        res = solve_tsp(w)
        assert res.tour.order == (0, 1)
        assert res.cost == 4.0
        assert res.method == "EXACT"

    def test_exact_below_threshold(self):
        rng = np.random.default_rng(9)
        w = random_matrix(rng, 10)
        res = solve_tsp(w)
        assert res.method == "EXACT"
        assert res.cost == held_karp(w)[1]

    def test_heuristic_above_threshold(self):
        rng = np.random.default_rng(10)
        w = random_matrix(rng, 15)
        res = solve_tsp(w)
        assert res.method == "HEURISTIC"
        assert sorted(res.tour.order) == list(range(15))

    def test_heuristic_near_exact_at_m12(self):
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(20):
            w = random_matrix(rng, 12)
            heur = local_search_improve(w, nearest_neighbor(w))  # solve_tsp above the threshold
            ratios.append(tour_cost(w, heur) / held_karp(w)[1])
        ratios.sort()
        assert ratios[len(ratios) // 2] <= 1.05

    def test_convex_polygon_hull_order(self):
        # 5 points on a convex polygon: optimal tour follows the hull
        pts = [(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)) for k in range(5)]
        w = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                w[i, j] = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
        wm = WeightMatrix(w)
        res = solve_tsp(wm)
        b_order, b_cost = brute_force(wm)
        assert b_order == (0, 1, 2, 3, 4)  # hull order
        assert res.tour.order == b_order
        assert res.cost == b_cost

    def test_determinism(self):
        rng = np.random.default_rng(12)
        w = random_matrix(rng, 14)
        r1 = solve_tsp(w)
        r2 = solve_tsp(w)
        assert r1.tour.order == r2.tour.order and r1.cost == r2.cost
