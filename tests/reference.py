"""Reference implementations that the tests check the library against."""

import math
from itertools import combinations

import numpy as np

from localhom.complexes import _adjacency_bits, _support_sets


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
