"""List-based 2-opt and Or-opt scans, the references that the package's
array scans are tested against move by move.

Each scan walks its moves in index order over a list-of-lists weight table,
applies the first one that improves the tour by more than IMPROVE_EPS, and
returns whether it applied one.
"""

from multigoal.tsp import IMPROVE_EPS


def apply_first_2opt(wl, order) -> bool:
    m = len(order)
    for i in range(m - 1):
        a, b = order[i], order[i + 1]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # reversing the whole tail is a reflection, not a move
            c, d = order[j], order[(j + 1) % m]
            delta = wl[a][c] + wl[b][d] - wl[a][b] - wl[c][d]
            if delta < -IMPROVE_EPS:
                order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
                return True
    return False


def apply_first_oropt(wl, order) -> bool:
    m = len(order)
    for seg_len in (1, 2, 3):
        if seg_len >= m - 1:
            break
        for p in range(1, m - seg_len + 1):
            prev_v = order[p - 1]
            s0 = order[p]
            s1 = order[p + seg_len - 1]
            next_v = order[(p + seg_len) % m]
            removal_gain = wl[prev_v][s0] + wl[s1][next_v] - wl[prev_v][next_v]
            rest = order[:p] + order[p + seg_len :]
            for g in range(1, len(rest) + 1):
                u = rest[g - 1]
                v = rest[g % len(rest)]
                if u == prev_v and v == next_v:
                    continue  # original slot
                delta = wl[u][s0] + wl[s1][v] - wl[u][v] - removal_gain
                if delta < -IMPROVE_EPS:
                    order[:] = rest[:g] + order[p : p + seg_len] + rest[g:]
                    return True
    return False
