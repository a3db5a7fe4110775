"""Reference implementations that the tests check the library against."""

import math
from itertools import combinations, permutations

import numpy as np

from localhom.complexes import _adjacency_bits, _support_sets, build_complex, delete_ball
from localhom.fieldla import _bits, _nonzero, lane_width, reduce_columns


def pack(cols, q: int):
    """Packed GF(q) columns from lists of (row, coefficient) pairs of
    integers, numpy ones included, with distinct rows; coefficients are
    taken mod q."""
    k = lane_width(q)
    return [sum([int(c) % q << int(r) * k for r, c in col]) for col in cols]


def entries(x: int, q: int):
    """Sorted (row, coefficient) pairs of a packed GF(q) column."""
    k = lane_width(q)
    return [(b // k, x >> b & (1 << k) - 1) for b in _bits(_nonzero(x, q))]


def min_enclosing_radius(points_subset) -> float:
    """Radius of the smallest ball enclosing the given points: the largest
    circumradius among their support subsets of at most D + 1 points, one of
    which spans that ball (Welzl, "Smallest enclosing disks (balls and
    ellipsoids)", 1991); 0 for an empty set or a single point."""
    P = np.asarray(points_subset, dtype=float)
    if len(P) < 2:
        return 0.0
    r2 = 0.0
    for k in range(2, min(len(P), P.shape[1] + 1) + 1):
        rk, support = _support_sets(P[np.array(list(combinations(range(len(P)), k)))])
        r2 = max(r2, float(rk[support].max(initial=0.0)))
    return math.sqrt(r2)


def local_graph(points, sq, a: float, b: float):
    """The Rips graph at scale a on the vertices within b + 2a of a query's
    centre, ``sq`` holding every point's squared distance to it, built on
    its own.  The vertices are numbered by distance to the centre, ties in
    index order, so the ball's are 0..nb-1.  Returns the global id of each
    local vertex, nb and the closed-neighbourhood bitmasks.
    """
    local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
    local = local[np.argsort(sq[local], kind="stable")]
    nb = int((sq[local] < b * b).sum())
    return local, nb, _adjacency_bits(points, local, a)


def boundary_by_slices(simplices, rows, q: int):
    """Packed GF(q) boundary columns by the slice rule: facet i of s is
    ``s[:i] + s[i + 1:]``, with coefficient (-1)^i at its row in ``rows``,
    and a facet without a row is dropped."""
    k = lane_width(q)
    cols = []
    for s in simplices:
        col = 0
        for i in range(len(s)):
            r = rows.get(s[:i] + s[i + 1:])
            if r is not None:
                col |= (q - 1 if i % 2 else 1) << r * k
        cols.append(col)
    return cols


def coned_order(points, center, level1, level2, flavor: str, max_dim: int):
    """The two-level coned filtration as sets: per level (a, b), X the
    complex at scale a on every point, A the complex on the points outside
    the open b-ball, to one degree less, and X ∪ ωA with ω = len(points).
    Each set is sorted by (length, tuple), level 1 first, then what level 2
    adds.  Returns the simplices, their dimensions and levels."""
    omega = len(points)
    levels = []
    for a, b in (level1, level2):
        X = build_complex(points, None, a, max_dim, flavor)
        k = {s for ss in X.simplices.values() for s in ss} | {(omega,)}
        if max_dim >= 1:
            A = build_complex(points, delete_ball(points, center, b), a, max_dim - 1, flavor)
            k |= {s + (omega,) for ss in A.simplices.values() for s in ss}
        levels.append(k)
    block1 = sorted(levels[0], key=lambda s: (len(s), s))
    block2 = sorted(levels[1] - levels[0], key=lambda s: (len(s), s))
    simplices = block1 + block2
    return simplices, [len(s) - 1 for s in simplices], [1] * len(block1) + [2] * len(block2)


def persistent_reduce_plain(columns, q: int, levels, degrees):
    """``persistent_reduce`` by one left-to-right reduction of the whole
    matrix, with no clearing: per degree, the level-1 columns that reduce to
    zero and whose row no column claims.  ``levels`` puts level 1 first."""
    lows, pivot = reduce_columns(list(columns), q)
    last1 = sum(1 for lv in levels if lv == 1) - 1
    out = {}
    for j in range(last1 + 1):
        if lows[j] < 0 and j not in pivot:
            out[degrees[j]] = out.get(degrees[j], 0) + 1
    return out


def det_leibniz(M):
    """Determinants of an (m, n, n) stack by the Leibniz formula, one
    permutation at a time in ``permutations`` order, each product over its
    rows in order and the signed terms summed from 0.0 in that order."""
    n = M.shape[-1]
    out = 0.0
    for p in permutations(range(n)):
        term = M[:, np.arange(n), p].prod(axis=1)
        out = out - term if sum(a > b for a, b in combinations(p, 2)) & 1 else out + term
    return out
