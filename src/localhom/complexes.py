"""Vietoris-Rips and Cech complexes, ball deletion, quotient pairs, cones.

Conventions (fixed throughout the package):
  * ball-RADIUS scale: edge {i,j} present iff d(i,j) <= 2*alpha (closed balls
    of radius alpha intersect) — not the diameter convention;
  * complex membership uses closed balls (<=), vertex DELETION removes the
    OPEN ball (points at distance exactly b survive);
  * distances are compared squared, with no fuzz epsilon.

Input is checked once, at the public builders, by one gate that rejects
what a deleted-ball pair is not defined for: ``_check_levels`` (scales,
ball radii, flavor, top degree), ``_finite_points`` (the sample) and
``_finite_centre`` (a centre of the sample's dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fieldla import _bits, lane_width
from .geometry import sq_dists


def _adjacency_bits(points: np.ndarray, subset: np.ndarray, alphas, sizes=None):
    """Per-vertex int bitmasks of the closed neighbourhoods in the Rips/Cech
    edge graph at each scale of ``alphas``, a tuple or list, one list per
    scale; a single scale gives its list alone.  Each vertex's own bit is
    set, as its squared distance to itself is 0.  With ``sizes``, scale k's
    graph is on the first ``sizes[k]`` vertices of ``subset`` only, as if
    built on that prefix.

    Bit positions are LOCAL indices into ``subset``.  Edge rule: squared
    distance <= (2*alpha)^2.  Rows are computed in blocks of 256, so the
    temporaries stay a few MB on large subsets, and each block is
    thresholded once per scale.
    """
    one = not isinstance(alphas, (tuple, list))
    thr = [(2.0 * a) ** 2 for a in ((alphas,) if one else alphas)]
    pts = points[subset]
    if sizes is None:
        sizes = [len(pts)] * len(thr)
    adj: List[List[int]] = [[] for _ in thr]
    for lo in range(0, len(pts), 256):
        # the distance block is freed as the comprehension returns, and
        # ``close`` stays bound until the next block's is made: freed first,
        # it lets malloc trim the heap, and the next block faults its pages
        # in again (4x the page faults and 1.5x the time on 1500 points)
        close = [block[:max(m - lo, 0), :m] <= t
                 for block in [sq_dists(pts[lo:lo + 256], pts)] for t, m in zip(thr, sizes)]
        for rows, c in zip(adj, close):
            rows += _bitmasks(c)
    return adj[0] if one else adj


def _bitmasks(mask: np.ndarray) -> List[int]:
    """Python-int bitmask of each row of a 2-D boolean array, bit j set
    where column j is True."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    n, w = packed.shape
    if w <= 16:
        # up to 128 columns: two little-endian 64-bit words a row, which one
        # ``tolist`` turns into ints: 21 µs against 27 µs a row at a time
        # for 86 rows, and 28 against 38 for 128, on a 2-core Xeon
        words = np.zeros((n, 16), dtype=np.uint8)
        words[:, :w] = packed
        return [lo | hi << 64 for lo, hi in words.view("<u8").tolist()]
    raw = packed.tobytes()
    return [int.from_bytes(raw[k * w:(k + 1) * w], "little") for k in range(n)]


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

    def dump(self) -> str:
        """One simplex per line: `dim k: v0 v1 ... vk`, sorted."""
        lines = []
        for d in sorted(self.simplices):
            for s in self.simplices[d]:
                lines.append(f"dim {d}: " + " ".join(str(v) for v in s))
        return "\n".join(lines)


def _clique_expand(subset: Sequence[int], adj: Dict[int, int], max_dim: int,
                   inside: int = -1, spanning: bool = False):
    """Clique complex of the edge graph given by ``adj``, restricted to the
    simplices that meet ``inside``, a bitmask of local vertices (default:
    every vertex).

    ``adj`` maps each vertex of the graph, a local index, to the bitmask of
    its neighbours, in ascending order of the local indices; every
    neighbour is a key.  Only these vertices are read, so a caller can
    expand a subgraph, such as the live core of a collapse, without passing
    the others.  ``subset[i]`` is the global id of local vertex i, an int.

    Returns dict dim -> list of global-index tuples, each list in the
    lexicographic order of local indices (that of global ids when
    ``subset`` is sorted): the filtered lists of the full complex.  Degrees
    0 and 1 are present when max_dim >= 1 and ``adj`` is not empty; above
    them the dict stops before the first degree with no simplex.

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
    out: Dict[int, List[Tuple[int, ...]]] = {0: [(subset[i],) for i in adj
                                                 if inside >> i & 1]}
    if max_dim < 1 or not adj:
        return out
    # partial simplices (least, top, common neighbours, global tuple, meets
    # inside), each with a common neighbour above top by which it can grow
    # into a simplex that meets inside
    prev = [(i, i, a, (subset[i],), inside >> i & 1) for i, a in adj.items()
            if (a & (-1 if inside >> i & 1 else inside)) >> (i + 1)]
    for d in range(1, max_dim + 1):
        if d < max_dim:
            cur, kept = [], []
            for lo, top, common, g, met in prev:
                for k in _bits(common >> (top + 1) << (top + 1)):
                    ck = common & adj[k]
                    if met or inside >> k & 1:
                        gk = g + (subset[k],)
                        kept.append(gk)
                        if ck >> (k + 1):
                            cur.append((lo, k, ck, gk, 1))
                    elif (ck & inside) >> (k + 1):
                        cur.append((lo, k, ck, g + (subset[k],), 0))
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
                kept += [g + (subset[k],) for k in _bits(ext)]
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
    return _build(points, vertex_subset, (alpha,), max_dim, "rips")[0]


def _build(points, vertex_subset, alphas, max_dim: int,
           flavor: str) -> List[SimplicialComplex]:
    """The complexes of ``flavor`` over one vertex subset at each scale of
    ``alphas``, in ascending order: ``rips``, ``cech`` and
    ``build_complex`` are its one-scale case.  One ``_adjacency_bits`` pass
    gives every scale's edge graph, and each is expanded into its cliques;
    a Cech build then measures the candidates of the largest scale once
    (``_cech_filter``).  Scales must be >= 0: the edge test squares 2a, so
    a negative scale would join every pair, and a NaN one none.
    """
    _check_complex(flavor, max_dim)
    if len(alphas) > 1 and not all(x <= y for x, y in zip(alphas, alphas[1:])):
        raise ValueError("scales must be ascending")
    if not all(a >= 0 for a in alphas):
        raise ValueError("scales must be >= 0")
    points = _finite_points(points)
    subset = _normalize_subset(points, vertex_subset)
    simps: List[Dict[int, List[Tuple[int, ...]]]] = [{} for _ in alphas]
    if len(subset):
        ids = subset.tolist()
        simps = [_clique_expand(ids, {i: x ^ 1 << i for i, x in enumerate(adj)}, max_dim)
                 for adj in _adjacency_bits(points, subset, alphas)]
        if flavor == "cech":
            simps = _cech_filter(points, simps, alphas)
    return [SimplicialComplex(subset, simp, max_dim, a, flavor)
            for simp, a in zip(simps, alphas)]


def collapse_vertices(adj: List[int], inside: int, bad=()):
    """Strong collapse of a Rips or Cech complex X relative to its
    subcomplex A off a ball.

    ``adj`` holds closed-neighbourhood bitmasks over local vertex indices,
    each vertex's own bit set (as from ``_adjacency_bits``); ``inside`` is
    the bitmask of the vertices in the deleted ball.  X is the clique
    complex of ``adj`` less the cofaces of the vertex sets in ``bad``,
    bitmasks such as ``_bad_simplices`` gives for a Cech complex; a Rips
    complex passes none.  A live vertex v is dominated by a live neighbour
    w when every simplex of X on the live vertices that holds v is still
    one with w added (Barmak & Minian, "Strong homotopy types, nerves and
    collapses", DCG 2012).  That asks N[v] ⊆ N[w], closed neighbourhoods
    taken over the live vertices, and that no bad set t holding w, whose
    other vertices are v or live neighbours of v, leaves (t - w) + v a
    simplex of X (``_adds_bad``).  Vertices are tried from the highest
    index down, and each one's candidates w from the lowest up, until no
    live vertex is dominated.  A dominated ball vertex goes onto any such w, one off the
    ball only onto a w off the ball.  Each step v -> w is then a
    simplicial retraction of X onto X - v that maps A into A, a strong
    deformation retraction of the pair, so H(X, A) is unchanged; and the
    composed vertex map onto the live core is a simplicial map of pairs,
    homotopy inverse to the inclusion of the core.

    A dominator of v neighbours every live neighbour of v, so the scan reads
    only the candidates in the closed neighbourhoods of v's lowest and
    highest live neighbours.  That drops non-dominators alone and keeps the
    order, so the first w found is the one a scan of every neighbour finds.

    Returns the bitmask of the live vertices (the live neighbourhood of a
    live v is ``adj[v] & live ^ 1 << v``) and the collapses as (v, w), in
    order.  ``adj`` is only read.
    """
    live = todo = (1 << len(adj)) - 1
    outside = ~inside
    onto = []
    # the bad sets that hold each vertex, listed once per collapse
    holding = [[] for _ in adj] if bad else ()
    for t in bad:
        for u in _bits(t):
            holding[u].append(t)
    while todo:
        again = 0
        while todo:
            v = todo.bit_length() - 1
            bit = 1 << v
            todo ^= bit
            nv = adj[v] & live
            around = nv ^ bit
            if not around:
                continue
            # candidates: common neighbours of the lowest and highest live
            # neighbours of v, from the lowest up, one bit at a time (inline,
            # as this loop dominates the collapse)
            lo, hi = (around & -around).bit_length() - 1, around.bit_length() - 1
            cand = around & adj[lo] & adj[hi]
            if not inside & bit:
                cand &= outside
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                if not nv & ~adj[w] and not (holding and _adds_bad(holding, v, w, nv)):
                    live ^= bit
                    onto.append((v, w))
                    # only a vertex that lost a neighbour can become dominated;
                    # those still in ``todo`` are tried later in this pass
                    again |= around & ~todo
                    break
                cand ^= low
        todo = again
    return live, onto


def _adds_bad(holding, v: int, w: int, nv: int) -> bool:
    """Whether some simplex on the live vertices that holds v stops being
    one when w is added: some bad set t holds w, its other vertices lie in
    ``nv``, the live closed neighbourhood of v, and (t - w) + v holds no
    bad set, so it is a simplex whose union with w holds t.  ``holding[u]``
    lists the bad sets that hold vertex u; a bad set inside (t - w) + v
    holds one of its vertices, so only their lists are read."""
    bw = 1 << w
    for t in holding[w]:
        if not t & ~nv:
            s = t ^ bw | 1 << v
            if all(u & ~s for x in _bits(s) for u in holding[x]):
                return True
    return False


def _check_levels(level1, level2, flavor: str, lmax: int) -> None:
    """Raises ``ValueError`` unless no scale or radius of the levels
    (a1, b1), (a2, b2) is NaN, they nest (a1 <= a2, b2 <= b1) with a1 > 0
    and b2 >= 0, and ``_check_complex`` takes ``flavor`` and ``lmax``; one
    level (a, b) is the pair ((a, b), (a, b)).  The field q is checked
    where it is given (``fieldla._require_prime``)."""
    a1, b1 = level1
    a2, b2 = level2
    if a1 != a1 or b1 != b1 or a2 != a2 or b2 != b2:
        raise ValueError("scales and ball radii must not be NaN")
    if a1 > a2 or b2 > b1:
        raise ValueError("nesting violated: need a1 <= a2 and b2 <= b1")
    if a1 <= 0:
        raise ValueError("scale a must be positive")
    _check_radius(b2)
    _check_complex(flavor, lmax)


def _check_radius(b: float) -> None:
    """Raises ``ValueError`` unless the ball radius b is >= 0 (so not NaN)."""
    if not b >= 0:
        raise ValueError(f"ball radius b must be >= 0, got {b}")


def _check_complex(flavor: str, top: int) -> None:
    """Raises ``ValueError`` unless ``flavor`` is known and the top degree >= 0."""
    if flavor not in ("rips", "cech"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if top < 0:
        raise ValueError("top degree max_dim or lmax must be >= 0")


def _finite_points(points) -> np.ndarray:
    """``points`` as an (n, D) float array of finite coordinates, or ``ValueError``."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"sample of shape {points.shape} is not an (n, D) array")
    if not np.isfinite(points).all():
        raise ValueError("sample points must have finite coordinates")
    return points


def _finite_centre(points: np.ndarray, center) -> np.ndarray:
    """``center`` as a float array, checked to be a finite point of the sample's R^D."""
    c = np.asarray(center, dtype=float)
    if c.shape != points.shape[1:]:
        raise ValueError(f"centre of shape {c.shape} for points with "
                         f"{points.shape[1]} coordinates")
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError("centre coordinates must be finite")
    return c


def _normalize_subset(points, vertex_subset) -> np.ndarray:
    if vertex_subset is None:
        return np.arange(len(points))
    out = np.asarray(sorted(int(v) for v in vertex_subset), dtype=int)
    return out


# --- smallest enclosing balls ------------------------------------------------

@lru_cache(maxsize=None)
def _leibniz(n: int):
    """The per-size table of ``_det`` and ``_support_sets`` for n x n
    matrices: the flat index of each entry of each permutation's product,
    (n!, n) in ``permutations`` order, each permutation's parity, and the
    (n + 1, 1, 1, n) masks of the columns that ``_support_sets`` replaces,
    none in the first."""
    perms = list(permutations(range(n)))
    flat = np.array([[i * n + j for i, j in enumerate(p)] for p in perms], dtype=np.intp)
    odd = [sum(a > b for a, b in combinations(p, 2)) & 1 for p in perms]
    swap = np.arange(-1, n)[:, None, None, None] == np.arange(n)
    flat.setflags(write=False)
    swap.setflags(write=False)
    return flat, tuple(odd), swap


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of an (m, n, n) stack by the Leibniz formula: n! products
    and no division, so exact where the products are, as on grid points.
    One gather and one ``np.multiply.reduce`` give a block's products, each
    over its n factors in row order.  Blocks of up to 16384 factors keep the
    gathered temporaries at 128 KB: in one block, 1000 sets in R^3 took
    ``_support_sets`` 1.4 ms against 1.2 ms, on a 2-core Xeon."""
    n = M.shape[-1]
    flat, odd, _ = _leibniz(n)
    entries = M.reshape(len(M), n * n)
    step = max(1, 16384 // max(flat.size, 1))
    parts = []
    for lo in range(0, max(len(M), 1), step):
        terms = np.multiply.reduce(entries[lo:lo + step, flat], axis=2)
        out = 0.0
        # summed in one fixed order, so a row's value does not depend on the
        # rows beside it, as a matrix product's blocking could make it
        for k, o in enumerate(odd):
            out = out - terms[:, k] if o else out + terms[:, k]
        parts.append(out)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    swap = _leibniz(n)[2]
    dets = _det(np.where(swap, h[:, :, None], G).reshape(-1, n, n)).reshape(n + 1, -1)
    independent = dets[0] > 1e-12 * np.prod(2 * h, axis=1)
    w = dets[1:].T / np.where(independent, dets[0], 1.0)[:, None]
    return (w * h).sum(axis=1), independent & (w > 0).all(axis=1) & (w.sum(axis=1) < 1)


def _too_wide(P: np.ndarray, alpha: float) -> np.ndarray:
    """Which vertex sets of an (m, k, D) stack, k >= 3, ``cech`` rejects on
    their own account at scale alpha: the support sets of circumradius over
    alpha, with a relative fuzz of 1e-12 so that grid ties stay in."""
    return _wide(*_support_sets(P), alpha)


def _wide(r2: np.ndarray, support: np.ndarray, alpha: float) -> np.ndarray:
    """``_too_wide`` from the measurements of ``_support_sets``."""
    return support & (r2 > alpha * alpha * (1 + 1e-12) + 1e-24)


def cech(points: np.ndarray, vertex_subset, alpha: float,
         max_dim: int) -> SimplicialComplex:
    """Cech complex: simplex present iff its min enclosing ball radius <= alpha.

    Candidates are drawn from the Rips complex at the same scale (a set with
    enclosing radius <= alpha has diameter <= 2*alpha).  A candidate whose
    facets are all present is present unless it is itself a support set with
    circumradius > alpha (``_too_wide``): otherwise its smallest enclosing
    ball is that of one of its facets.  Sets of more than D + 1 points are
    never support sets, so in the plane only triangles are measured, and
    only acute ones can fail.  So the Cech complex is the Rips complex less
    the cofaces of the cliques of 3 to D + 1 vertices that ``_too_wide``
    rejects (``_bad_simplices``).  Each set is measured with its vertices in
    ascending order.
    """
    return _build(points, vertex_subset, (alpha,), max_dim, "cech")[0]


def _cech_filter(points: np.ndarray, simps, alphas):
    """The Cech complexes of ``cech`` from the Rips complexes ``simps`` at
    the ascending scales ``alphas``, degree by degree: a candidate is kept
    when its facets were and ``_too_wide`` does not reject it.

    The largest scale goes first.  Its candidates include every smaller
    scale's, as both the Rips and the Cech complexes grow with the scale, so
    its measurements, r^2 and the support flag of each set by
    ``_support_sets`` in stacks of 4096, are read at the smaller scales too,
    against their own alpha.  A row's measurement does not depend on its
    stack, so each scale keeps what a build at that scale alone keeps.
    """
    top = points.shape[1]
    out = [None] * len(simps)
    measured = {}        # degree -> the largest scale's candidates, r^2, support
    for k in reversed(range(len(simps))):
        base, alpha, simp = simps[k], alphas[k], {}
        for d in sorted(base):
            kept = base[d]
            # face closure: all facets must have survived, which can fail only
            # above a degree that lost simplices; every Rips edge is a Cech edge
            if d >= 2 and len(simp[d - 1]) < len(base[d - 1]):
                prev = set(simp[d - 1])
                kept = [s for s in kept if all(s[:i] + s[i + 1:] in prev
                                               for i in range(d + 1))]
            if kept and 2 <= d <= top:
                if d not in measured:
                    r2, support = zip(*(_support_sets(points[np.array(kept[i:i + 4096])])
                                        for i in range(0, len(kept), 4096)))
                    measured[d] = kept, np.concatenate(r2), np.concatenate(support)
                cands, r2, support = measured[d]
                if kept is not cands:
                    at = {s: i for i, s in enumerate(cands)}
                    rows = np.array([at[s] for s in kept], dtype=np.intp)
                    r2, support = r2[rows], support[rows]
                kept = [s for s, o in zip(kept, _wide(r2, support, alpha).tolist())
                        if not o]
            if not kept and d >= 2:
                break
            simp[d] = kept
        out[k] = simp
    return out


def _bad_simplices(points: np.ndarray, ids: np.ndarray, alpha: float) -> List[int]:
    """The cliques of 3 to D + 1 vertices of the Rips graph at scale alpha on
    the points ``ids`` that ``_too_wide`` rejects, as bitmasks of local
    vertices, local vertex i being point ``ids[i]``.  A clique is a Cech
    simplex iff it holds none of them.

    By Jung's theorem, a k-set of circumradius r has an edge of length at
    least r sqrt(2k / (k - 1)), sqrt(3) r for a triangle.  So only the
    cliques whose longest edge is longer than alpha sqrt(2k / (k - 1)),
    less a relative 1e-9 that keeps ties and rounding in, are measured.
    Each is grown once, from its longest edge: pairs are ordered by squared
    length with ties by ascending ids, and a vertex joins only if its edges
    to the set come before that one (``_before``, which reads only the
    candidate pairs' rows).  Each set is measured with its ids
    ascending, as ``cech`` measures it, so the verdicts are the same.
    """
    m = len(ids)
    pts = points[ids]
    sq = sq_dists(pts, pts)
    up = np.arange(m)
    edge = (sq <= (2.0 * alpha) ** 2) & (up > up[:, None])
    out = []
    for k in range(3, min(points.shape[1] + 1, m) + 1):
        i, j = np.nonzero(edge & (sq > alpha * alpha * 2 * k / (k - 1) * (1 - 1e-9)))
        sets = np.c_[i, j]
        common = _before(sq, i, i, j) & _before(sq, j, i, j)
        for step in range(k - 2):
            e, x = np.nonzero(common)
            sets, i, j = np.c_[sets[e], x], i[e], j[e]
            if step < k - 3:
                common = common[e] & _before(sq, x, i, j) & (up > x[:, None])
        if len(sets):
            bad = _too_wide(points[np.sort(ids[sets], axis=1)], alpha)
            out += [sum(1 << v for v in s) for s in sets[bad].tolist()]
    return out


def _before(sq: np.ndarray, u: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per row r, which vertices y make a pair {u[r], y} that comes before
    the pair (i[r], j[r]), i < j, in the order of ``_bad_simplices``: by
    squared length in ``sq``, ties by ascending (smaller id, larger id).  A
    vertex with itself is never before."""
    t = sq[i, j][:, None]
    row = sq[u]
    out = row < t
    # ties are rare, and pair (i, j) itself is one: settle them by ids
    r, y = np.nonzero(row == t)
    lo, hi = np.minimum(u[r], y), np.maximum(u[r], y)
    out[r, y] = (lo < i[r]) | (lo == i[r]) & (hi < j[r])
    out[np.arange(len(u)), u] = False
    return out


def build_complex(points, vertex_subset, alpha, max_dim, flavor="rips"):
    """The ``rips`` or ``cech`` complex, by ``flavor``."""
    return _build(points, vertex_subset, (alpha,), max_dim, flavor)[0]


def delete_ball(points: np.ndarray, center, radius: float) -> np.ndarray:
    """Indices of points at distance >= radius from center (open ball removed)."""
    _check_radius(radius)
    points = _finite_points(points)
    sq = sq_dists(points, _finite_centre(points, center))
    return np.flatnonzero(sq >= radius * radius)


def boundary(simplices, rows: Dict[Tuple[int, ...], int], q: int) -> List[int]:
    """Boundary columns of ``simplices`` over GF(q), packed as in ``fieldla``.

    Facet k (vertex k removed) has coefficient (-1)^k at its row in
    ``rows``; a facet without a row is dropped, so a vertex gives the zero
    column.  The facets come from ``combinations(s, d)``, which drops the
    last vertex first: the i-th drops vertex d - i.  GF(2) has no signs and
    one-bit lanes, so it has a loop of its own.
    """
    if not rows:
        return [0] * len(simplices)
    get = rows.get
    cols = []
    if q == 2:
        for s in simplices:
            col = 0
            for r in map(get, combinations(s, len(s) - 1)):
                if r is not None:
                    col |= 1 << r
            cols.append(col)
        return cols
    k = lane_width(q)
    sign = (1, q - 1)
    for s in simplices:
        d = len(s) - 1
        col = 0
        for i, r in enumerate(map(get, combinations(s, d))):
            if r is not None:
                col |= sign[(d ^ i) & 1] << r * k
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

    max_dim: int
    basis: Dict[int, List[Tuple[int, ...]]]

    def dim_count(self, d: int) -> int:
        return len(self.basis.get(d, []))

    def boundary_columns(self, d: int, q: int) -> List[int]:
        """Packed GF(q) boundary columns of the basis d-simplices, one per
        simplex, over ``dim_count(d - 1)`` rows that index the
        (d-1)-basis; faces outside the basis are dropped."""
        rows = {s: i for i, s in enumerate(self.basis.get(d - 1, ()))}
        return boundary(self.basis.get(d, []), rows, q)

    def images(self, d: int, simplices, q: int) -> List[int]:
        """The basis-diagonal chain map into this pair: each simplex of
        ``simplices`` to its own degree-d row with coefficient 1, or to 0 if
        it is not a basis simplex, as when it misses this pair's ball."""
        rows = {s: i for i, s in enumerate(self.basis.get(d, ()))}
        k = lane_width(q)
        return [0 if (r := rows.get(s)) is None else 1 << r * k for s in simplices]


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
    _check_levels((a, b), (a, b), flavor, max_dim)
    points = _finite_points(points)
    # read before the empty pair of b = 0, which reads no distance
    c = _finite_centre(points, center)
    return QuotientPairComplex(max_dim, _pair_basis(points, c, a, b, flavor, max_dim))


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
        adj = {i: x ^ 1 << i for i, x in enumerate(_adjacency_bits(points, local, a))}
        simp = _clique_expand(local.tolist(), adj, max_dim, _bitmasks(near[None])[0],
                              spanning)
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


def _coned_level(X: SimplicialComplex, off: set, max_dim: int, omega: int):
    """Simplices of X ∪ ωA at one (scale, ball) level, A the subcomplex of X
    induced on ``off``, the vertices outside the open ball, as a dict from
    length to list: X's d-simplices at length d + 1, in lexicographic order,
    then ω alone at length 1, and s + (ω,) at length d + 2 for each
    d-simplex s of A with d < max_dim, in the order of s.

    ω is always included as an isolated vertex, so the construction also
    covers A = ∅.
    """
    out = {d + 1: list(ss) for d, ss in X.simplices.items()}
    out.setdefault(1, []).append((omega,))
    for d, ss in X.simplices.items():
        if d < max_dim:
            out.setdefault(d + 2, []).extend([s + (omega,) for s in ss
                                              if off.issuperset(s)])
    return out


def cone_pair(points: np.ndarray, center, level1, level2,
              flavor: str = "rips", max_dim: int = 2) -> ConedPair:
    """Two-level coned filtration for the inclusion-induced image oracle.

    level1 = (a1, b1), level2 = (a2, b2), checked as a query's levels
    (``_check_levels``): a1 <= a2 and b2 <= b1, so that both the complexes
    and the deleted-ball subcomplexes nest.
    The simplices are ordered by length, then lexicographically (ω, the
    largest id, last), with every simplex of level 1 before the rest of
    level 2.

    Both levels come from one pass: one ``_build`` of the complexes at a1
    and a2, and one vector of squared distances to the centre, from which
    each level's A takes the points at distance >= b, as ``delete_ball``
    does.
    """
    _check_levels(level1, level2, flavor, max_dim)
    (a1, b1), (a2, b2) = level1, level2
    points = _finite_points(points)
    omega = len(points)
    sq = sq_dists(points, _finite_centre(points, center))
    X1, X2 = _build(points, None, (a1, a2), max_dim, flavor)
    k1, k2 = (_coned_level(X, set(np.flatnonzero(sq >= b * b).tolist()), max_dim, omega)
              for X, b in ((X1, b1), (X2, b2)))
    block1, block2, dims1, dims2 = [], [], [], []
    for n in sorted(k1.keys() | k2.keys()):
        # a level lists each simplex once, so level 1 lies in level 2 iff
        # every one of its simplices is among those level 2 lists
        ss1 = k1.get(n, [])
        s1 = set(ss1)
        ss2 = k2.get(n, [])
        new = [s for s in sorted(ss2) if s not in s1]
        if len(ss2) - len(new) != len(s1):
            raise ValueError("level-1 coned complex is not contained in level 2")
        block1 += sorted(ss1)
        block2 += new
        dims1 += [n - 1] * len(s1)
        dims2 += [n - 1] * len(new)
    levels = [1] * len(block1) + [2] * len(block2)
    return ConedPair(omega, block1 + block2, dims1 + dims2, levels)
