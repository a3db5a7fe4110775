"""Vietoris-Rips and Cech complexes, ball deletion, quotient pairs, cones.

Conventions (fixed throughout the package):
  * ball-RADIUS scale: edge {i,j} present iff d(i,j) <= 2*alpha (closed balls
    of radius alpha intersect) — not the diameter convention;
  * complex membership uses closed balls (<=), vertex DELETION removes the
    OPEN ball (points at distance exactly b survive);
  * distances are compared squared, with no fuzz epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Dict, List, Tuple

import numpy as np

from .fieldla import _bits, lane_width
from .geometry import sq_dists


def _adjacency_bits(points: np.ndarray, subset: np.ndarray, alpha: float):
    """Per-vertex int bitmasks of the Rips/Cech edge graph at scale alpha.

    Bit positions are LOCAL indices into ``subset``.  Edge rule: squared
    distance <= (2*alpha)^2.  Rows are computed in blocks of 256, so the
    temporaries stay a few MB on large subsets.
    """
    pts = points[subset]
    thr = (2.0 * alpha) ** 2
    adj: List[int] = []
    for lo in range(0, len(pts), 256):
        close = sq_dists(pts[lo:lo + 256], pts) <= thr
        rows = np.arange(len(close))
        close[rows, rows + lo] = False
        adj += _bitmasks(close)
    return adj


def _bitmasks(mask: np.ndarray) -> List[int]:
    """Python-int bitmask of each row of a 2-D boolean array, bit j set
    where column j is True."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[k * w:(k + 1) * w], "little")
            for k in range(len(packed))]


@dataclass
class SimplicialComplex:
    """Simplices grouped by dimension, each dimension sorted lexicographically.

    Vertex entries are GLOBAL sample indices.  Closed under faces up to
    ``max_dim`` by construction.
    """

    vertex_ids: np.ndarray
    simplices: Dict[int, List[Tuple[int, ...]]]
    max_dim: int
    scale: float
    flavor: str

    def count(self, dim: int) -> int:
        return len(self.simplices.get(dim, []))

    def has(self, simplex: Tuple[int, ...]) -> bool:
        d = len(simplex) - 1
        return tuple(simplex) in set(self.simplices.get(d, []))

    def dump(self) -> str:
        """One simplex per line: `dim k: v0 v1 ... vk`, sorted."""
        lines = []
        for d in sorted(self.simplices):
            for s in self.simplices[d]:
                lines.append(f"dim {d}: " + " ".join(str(v) for v in s))
        return "\n".join(lines)


def _clique_expand(subset: np.ndarray, adj: List[int], max_dim: int,
                   inside: int = -1, spanning: bool = False):
    """Clique complex of the edge graph given by ``adj`` (local bitmasks),
    restricted to the simplices that meet ``inside``, a bitmask of local
    vertices (default: every vertex).

    Returns dict dim -> list of global-index tuples, each list in the
    lexicographic order of local indices (that of global ids when
    ``subset`` is sorted): the filtered lists of the full complex.  Degrees
    0 and 1 are present when max_dim >= 1 and ``subset`` is not empty;
    above them the dict stops before the first degree with no simplex.

    The expansion goes degree by degree.  A partial simplex carries its
    least and top local vertex, the mask of its common neighbours and its
    global tuple, and grows by each common neighbour above its top vertex.
    One that misses ``inside`` grows only while a vertex of ``inside`` is
    still among them.

    With ``spanning``, degree max_dim >= 1 keeps only the simplices with no
    common neighbour below their least vertex.  Their boundaries span those
    of all the max_dim-simplices that meet ``inside``, modulo chains that
    miss it.  If s has such a neighbour v, then v ∪ s is a simplex of the
    flag complex, and ∂∂(v ∪ s) = 0 writes ∂s as ±Σ_i ±∂(v ∪ (s − s_i)).
    The terms that miss ``inside`` vanish in the quotient, and the others
    have least vertex v, below that of s, so induction on the least vertex
    ends at the kept simplices.  The argument needs v ∪ s to be a simplex,
    so it holds for Rips complexes and not for Cech complexes.
    """
    m = len(subset)
    ids = [int(v) for v in subset]
    out: Dict[int, List[Tuple[int, ...]]] = {0: [(ids[i],) for i in range(m)
                                                 if inside >> i & 1]}
    if max_dim < 1 or m == 0:
        return out
    # partial simplices (least, top, common neighbours, global tuple, meets
    # inside), each with a common neighbour above top by which it can grow
    # into a simplex that meets inside
    prev = [(i, i, adj[i], (ids[i],), inside >> i & 1) for i in range(m)
            if (adj[i] & (-1 if inside >> i & 1 else inside)) >> (i + 1)]
    for d in range(1, max_dim + 1):
        if d < max_dim:
            cur, kept = [], []
            for lo, top, common, g, met in prev:
                for k in _bits(common >> (top + 1) << (top + 1)):
                    ck = common & adj[k]
                    if met or inside >> k & 1:
                        gk = g + (ids[k],)
                        kept.append(gk)
                        if ck >> (k + 1):
                            cur.append((lo, k, ck, gk, 1))
                    elif (ck & inside) >> (k + 1):
                        cur.append((lo, k, ck, g + (ids[k],), 0))
        else:
            kept = []
            for lo, top, common, g, met in prev:
                ext = common >> (top + 1) << (top + 1)
                if not met:
                    ext &= inside
                # with spanning, drop the neighbours of every common
                # neighbour below lo
                low = common & ((1 << lo) - 1) if spanning else 0
                while low and ext:
                    v = low & -low
                    ext &= ~adj[v.bit_length() - 1]
                    low ^= v
                kept += [g + (ids[k],) for k in _bits(ext)]
        if kept or d == 1:
            out[d] = kept
        if not kept or d == max_dim:
            break
        prev = cur
    return out


def rips(points: np.ndarray, vertex_subset, alpha: float,
         max_dim: int) -> SimplicialComplex:
    """Vietoris-Rips complex at ball radius alpha over a vertex subset.

    Edge {i,j} iff d(i,j) <= 2*alpha; higher simplices are cliques of the
    edge graph, built up to ``max_dim``.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    points = np.asarray(points, dtype=float)
    subset = _normalize_subset(points, vertex_subset)
    if len(subset) == 0:
        return SimplicialComplex(subset, {}, max_dim, alpha, "rips")
    adj = _adjacency_bits(points, subset, alpha)
    simp = _clique_expand(subset, adj, max_dim)
    return SimplicialComplex(subset, simp, max_dim, alpha, "rips")


def collapse_vertices(adj: List[int], inside: int):
    """Strong collapse of a flag complex X relative to its subcomplex A off
    a ball.

    ``adj`` holds open-neighbourhood bitmasks over local vertex indices (as
    from ``_adjacency_bits``); ``inside`` is the bitmask of the vertices in
    the deleted ball.  A live vertex v is dominated by a live neighbour w
    when N[v] ⊆ N[w], closed neighbourhoods taken over the live vertices
    (Barmak & Minian, "Strong homotopy types, nerves and collapses", DCG
    2012).  Vertices are tried from the highest index down, and each one's
    candidates w from the lowest up, until no live vertex is dominated.  A
    dominated ball vertex goes onto any such w, one off the ball only onto a
    w off the ball.  Each step v -> w is then a simplicial retraction of X
    onto X - v that maps A into A, a strong deformation retraction of the
    pair, so H(X, A) is unchanged; and the composed vertex map onto the
    live core is a simplicial map of pairs, homotopy inverse to the
    inclusion of the core.

    Returns the open-neighbourhood bitmasks of the live vertices (0 for the
    others) and the collapses as (v, w), in order.
    """
    nbr = [a | (1 << i) for i, a in enumerate(adj)]
    live = todo = (1 << len(nbr)) - 1
    onto = []
    while todo:
        again = 0
        while todo:
            v = todo.bit_length() - 1
            todo ^= 1 << v
            nv = nbr[v] & live
            cand = nv ^ (1 << v)
            if not inside >> v & 1:
                cand &= ~inside
            # candidates from the lowest up, one bit at a time (inline, as
            # this loop dominates the collapse)
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                if not nv & ~nbr[w]:
                    live ^= 1 << v
                    onto.append((v, w))
                    # only a vertex that lost a neighbour can become dominated;
                    # those still in ``todo`` are tried later in this pass
                    again |= (nv ^ (1 << v)) & ~todo
                    break
                cand ^= low
        todo = again
    return [nbr[i] & live ^ (1 << i) if live >> i & 1 else 0
            for i in range(len(nbr))], onto


def _normalize_subset(points, vertex_subset) -> np.ndarray:
    if vertex_subset is None:
        return np.arange(len(points))
    out = np.asarray(sorted(int(v) for v in vertex_subset), dtype=int)
    return out


# --- smallest enclosing balls ------------------------------------------------

def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of an (m, n, n) stack by the Leibniz formula: n! products
    and no division, so exact where the products are, as on grid points."""
    n = M.shape[-1]
    perms = list(permutations(range(n)))
    sign = [(-1) ** sum(a > b for a, b in combinations(p, 2)) for p in perms]
    return M[:, np.arange(n), perms].prod(axis=2) @ np.array(sign, dtype=float)


def _support_sets(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Squared circumradius of each vertex set of an (m, k, D) stack, k >= 2,
    and whether the set is a support set: affinely independent, with its
    circumcentre strictly inside its hull.  With G the Gram matrix of the
    edge vectors e_j from vertex 0 and h = diag(G)/2, the circumcentre is
    vertex 0 + sum_j w_j e_j where G w = h, and r^2 = w.h.  A support set has
    det G > 1e-12 * prod(diag G), every w > 0 and sum(w) < 1; r^2 means
    nothing for other sets.  Cramer's rule solves G w = h exactly on grid
    right triangles, where an LU solve can put the centre strictly inside.
    """
    E = P[:, 1:] - P[:, :1]
    G = E @ E.transpose(0, 2, 1)
    h = np.diagonal(G, axis1=1, axis2=2) / 2
    n = G.shape[-1]
    # det G, then det of G with column j replaced by h, for each j
    swap = np.arange(-1, n)[:, None, None, None] == np.arange(n)
    dets = _det(np.where(swap, h[:, :, None], G).reshape(-1, n, n)).reshape(n + 1, -1)
    independent = dets[0] > 1e-12 * np.prod(2 * h, axis=1)
    w = dets[1:].T / np.where(independent, dets[0], 1.0)[:, None]
    return (w * h).sum(axis=1), independent & (w > 0).all(axis=1) & (w.sum(axis=1) < 1)


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


def cech(points: np.ndarray, vertex_subset, alpha: float,
         max_dim: int) -> SimplicialComplex:
    """Cech complex: simplex present iff its min enclosing ball radius <= alpha.

    Candidates are drawn from the Rips complex at the same scale (a set with
    enclosing radius <= alpha has diameter <= 2*alpha).  A candidate whose
    facets are all present is present unless it is itself a support set with
    circumradius > alpha: otherwise its smallest enclosing ball is that of
    one of its facets.  Sets of more than D + 1 points are never support
    sets, so in the plane only triangles are measured, and only acute ones
    can fail.
    """
    points = np.asarray(points, dtype=float)
    base = rips(points, vertex_subset, alpha, max_dim)
    thr2 = alpha * alpha * (1 + 1e-12) + 1e-24
    simp: Dict[int, List[Tuple[int, ...]]] = {}
    for d in sorted(base.simplices):
        kept = list(base.simplices[d])
        # face closure: all facets must have survived, which can fail only
        # above a degree that lost simplices; every Rips edge is a Cech edge
        if d >= 2 and len(simp[d - 1]) < len(base.simplices[d - 1]):
            prev = set(simp[d - 1])
            kept = [s for s in kept if all(s[:k] + s[k + 1:] in prev for k in range(d + 1))]
        if kept and 2 <= d <= points.shape[1]:
            out = []
            for i in range(0, len(kept), 4096):     # blocks bound the temporaries
                r2, support = _support_sets(points[np.array(kept[i:i + 4096])])
                out += (support & (r2 > thr2)).tolist()
            kept = [s for s, o in zip(kept, out) if not o]
        if not kept and d >= 2:
            break
        simp[d] = kept
    return SimplicialComplex(base.vertex_ids, simp, max_dim, alpha, "cech")


def build_complex(points, vertex_subset, alpha, max_dim, flavor="rips"):
    if flavor == "rips":
        return rips(points, vertex_subset, alpha, max_dim)
    if flavor == "cech":
        return cech(points, vertex_subset, alpha, max_dim)
    raise ValueError(f"unknown complex flavor {flavor!r}")


def delete_ball(points: np.ndarray, center, radius: float) -> np.ndarray:
    """Indices of points at distance >= radius from center (open ball removed)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return np.flatnonzero(sq_dists(points, center) >= radius * radius)


def boundary(simplices, rows: Dict[Tuple[int, ...], int], q: int) -> List[int]:
    """Boundary columns of ``simplices`` over GF(q), packed as in ``fieldla``.

    Facet k (vertex k removed) has coefficient (-1)^k at its row in
    ``rows``; a facet without a row is dropped, so a vertex gives the zero
    column.
    """
    k = lane_width(q)
    sign = (1, q - 1)
    cols = []
    for s in simplices:
        col = 0
        for i in range(len(s)):
            r = rows.get(s[:i] + s[i + 1:])
            if r is not None:
                col |= sign[i & 1] << r * k
        cols.append(col)
    return cols


@dataclass
class QuotientPairComplex:
    """Relative chain complex of (full complex, complex after ball deletion).

    ``basis[d]`` lists the d-simplices having >= 1 vertex strictly inside the
    deleted ball; ``boundary_columns`` drops faces outside the basis.  Built
    locally: only sample points within ``b + 2a`` of the center participate,
    which provably yields the same quotient as the full complex.
    """

    center: np.ndarray
    scale: float
    ball: float
    flavor: str
    max_dim: int
    basis: Dict[int, List[Tuple[int, ...]]]
    _index: Dict[int, Dict[Tuple[int, ...], int]] = field(default=None, repr=False)

    def __post_init__(self):
        if self._index is None:
            self._index = {d: {s: i for i, s in enumerate(ss)}
                           for d, ss in self.basis.items()}

    def dim_count(self, d: int) -> int:
        return len(self.basis.get(d, []))

    def boundary_columns(self, d: int, q: int) -> List[int]:
        """Packed GF(q) boundary columns of the basis d-simplices, one per
        simplex, over ``dim_count(d - 1)`` rows that index the
        (d-1)-basis; faces outside the basis are dropped."""
        return boundary(self.basis.get(d, []), self._index.get(d - 1, {}), q)


def quotient_pair(points: np.ndarray, center, a: float, b: float,
                  flavor: str = "rips", max_dim: int = 2) -> QuotientPairComplex:
    """Quotient chain complex computing the relative homology of the pair
    (complex at scale a, same complex after deleting the open b-ball at center).

    A Rips basis comes from ``_clique_expand`` restricted to the ball, so
    no simplex off it is built.  A Cech complex is built whole on the local
    vertices and filtered, since its face-closure test reads the facets
    that lie off the ball.  The basis is complete in every degree.
    ``image_rank`` and the engine build the top degree of a Rips level-2
    pair as the spanning set of ``_clique_expand`` instead: the simplices
    with no common neighbour below their least vertex, whose boundaries
    span all the relative boundaries by ∂∂ = 0 on their cofaces.  That
    lemma needs a flag complex, so it is for Rips only.
    """
    if a <= 0:
        raise ValueError("scale a must be positive")
    if b < 0:
        raise ValueError("ball radius b must be >= 0")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    points = np.asarray(points, dtype=float)
    c = np.asarray(center, dtype=float)
    return QuotientPairComplex(c, a, b, flavor, max_dim,
                               _pair_basis(points, c, a, b, flavor, max_dim))


def _pair_basis(points, center, a: float, b: float, flavor: str, max_dim: int,
                spanning: bool = False) -> Dict[int, List[Tuple[int, ...]]]:
    """The basis of ``quotient_pair`` per degree, degrees without a simplex
    left out.  With ``spanning``, degree max_dim of a Rips pair holds the
    spanning set of ``_clique_expand`` instead, whose boundaries span the
    relative boundaries of degree max_dim - 1; a Cech pair keeps every
    simplex, as its complex is not a flag complex.
    """
    if b <= 0:
        return {}
    sq = sq_dists(points, center)
    local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
    near = sq[local] < b * b
    if flavor == "rips":
        simp = _clique_expand(local, _adjacency_bits(points, local, a), max_dim,
                              _bitmasks(near[None])[0], spanning)
    else:
        ball = set(local[near].tolist())
        simp = {d: [s for s in ss if not ball.isdisjoint(s)] for d, ss in
                build_complex(points, local, a, max_dim, flavor).simplices.items()}
    return {d: ss for d, ss in simp.items() if ss}


@dataclass
class ConedPair:
    """Cone model of a relative pair: X with a cone ω over the subcomplex A.

    The cone vertex is a fresh index; reduced homology of X ∪ ωA equals the
    relative homology of (X, A).  For a two-level query the simplex order
    places all of level 1 (X₁ ∪ ωA₁) before the remainder of level 2.
    """

    omega: int
    simplices: List[Tuple[int, ...]]   # global order: level-1 block first
    dims: List[int]
    levels: List[int]                  # 1 or 2 per simplex

    def boundary_columns(self, q: int) -> List[int]:
        """Packed GF(q) boundary matrix of the whole filtration, for
        ``persistent_reduce`` with ``levels`` and ``dims``: rows and columns
        both follow the simplex order, and vertices get zero columns."""
        return boundary(self.simplices, {s: i for i, s in enumerate(self.simplices)}, q)


def _induced(cx: SimplicialComplex, vertices) -> SimplicialComplex:
    """The subcomplex of ``cx`` induced on ``vertices``.  For Rips and Cech
    complexes alike it is the complex built on that vertex subset, since
    whether a simplex is in depends only on its own points."""
    keep = {int(v) for v in vertices}
    simp: Dict[int, List[Tuple[int, ...]]] = {}
    if keep:
        for d in sorted(cx.simplices):
            kept = [s for s in cx.simplices[d] if keep.issuperset(s)]
            if not kept and d >= 2:
                break
            simp[d] = kept
    return SimplicialComplex(np.array(sorted(keep), dtype=int), simp, cx.max_dim,
                             cx.scale, cx.flavor)


def _coned_level(points, center, a, b, flavor, max_dim, omega):
    """Simplices of X ∪ ωA at one (scale, ball) level, as sorted tuples, A
    the subcomplex of X induced on the vertices outside the open ball.

    ω is always included as an isolated vertex, so the construction also
    covers A = ∅.
    """
    X = build_complex(points, None, a, max_dim, flavor)
    A = _induced(X, delete_ball(points, center, b))
    out = set()
    for d, ss in X.simplices.items():
        out.update(ss)
    out.add((omega,))
    for d, ss in A.simplices.items():
        if d + 1 <= max_dim:
            out.update(s + (omega,) for s in ss)
    return out


def cone_pair(points: np.ndarray, center, level1, level2,
              flavor: str = "rips", max_dim: int = 2) -> ConedPair:
    """Two-level coned filtration for the inclusion-induced image oracle.

    level1 = (a1, b1), level2 = (a2, b2); requires a1 <= a2 and b2 <= b1 so
    that both the complexes and the deleted-ball subcomplexes nest.
    """
    a1, b1 = level1
    a2, b2 = level2
    if a1 > a2 or b2 > b1:
        raise ValueError("pair nesting violated: need a1 <= a2 and b2 <= b1")
    points = np.asarray(points, dtype=float)
    omega = len(points)
    k1 = _coned_level(points, center, a1, b1, flavor, max_dim, omega)
    k2 = _coned_level(points, center, a2, b2, flavor, max_dim, omega)
    if not k1 <= k2:
        raise ValueError("level-1 coned complex is not contained in level 2")
    block1 = sorted(k1, key=lambda s: (len(s), s))
    block2 = sorted(k2 - k1, key=lambda s: (len(s), s))
    simplices = block1 + block2
    dims = [len(s) - 1 for s in simplices]
    levels = [1] * len(block1) + [2] * len(block2)
    return ConedPair(omega, simplices, dims, levels)
