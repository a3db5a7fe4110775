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
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fieldla import _bits


def _adjacency_bits(points: np.ndarray, subset: np.ndarray, alpha: float):
    """Per-vertex int bitmasks of the Rips/Cech edge graph at scale alpha.

    Bit positions are LOCAL indices into ``subset``.  Edge rule: squared
    distance <= (2*alpha)^2.
    """
    pts = points[subset]
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    close = sq <= (2.0 * alpha) ** 2
    np.fill_diagonal(close, False)
    return _bitmasks(close)


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

    def all_simplices(self):
        for d in sorted(self.simplices):
            for s in self.simplices[d]:
                yield d, s

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


def _clique_expand(subset: np.ndarray, adj: List[int], max_dim: int):
    """Clique complex of the edge graph given by ``adj`` (local bitmasks).

    Returns dict dim -> sorted list of global-index tuples.
    """
    m = len(subset)
    out: Dict[int, List[Tuple[int, ...]]] = {0: [(int(v),) for v in subset]}
    if max_dim < 1 or m == 0:
        return out
    # local simplices per dim, each stored with the bitmask of common
    # neighbors strictly above its largest vertex
    edges = []
    for i in range(m):
        hi = adj[i] >> (i + 1) << (i + 1)
        for j in _bits(hi):
            edges.append((i, j))
    out[1] = [(int(subset[i]), int(subset[j])) for i, j in edges]
    prev = edges
    for d in range(2, max_dim + 1):
        cur = []
        for s in prev:
            common = adj[s[0]]
            for v in s[1:]:
                common &= adj[v]
            last = s[-1]
            common = common >> (last + 1) << (last + 1)
            for k in _bits(common):
                cur.append(s + (k,))
        if not cur:
            break
        out[d] = [tuple(int(subset[v]) for v in s) for s in cur]
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


def collapse_edges(adj: List[int], inside: int):
    """Edge collapse of a flag complex relative to the subcomplex off a ball.

    ``adj`` holds open-neighbourhood bitmasks over local vertex indices (as
    from ``_adjacency_bits``); ``inside`` is the bitmask of the vertices in
    the deleted ball.  An edge uv meeting the ball is deleted while a vertex
    w dominates it, N[u] ∩ N[v] ⊆ N[w] with closed neighbourhoods; the flag
    complex then collapses onto the smaller one (Boissonnat & Pritam, "Edge
    collapse and persistence of flag complexes", SoCG 2020).  Edges off the
    ball are kept, so the subcomplex A is untouched and the relative
    homology H(X, A) is unchanged.

    Returns the remaining open-neighbourhood bitmasks and the deletions as
    (u, v, w) with u < v, in order; uw and wv were edges when uv went.
    """
    nbr = [a | (1 << i) for i, a in enumerate(adj)]
    removed = []
    changed = True
    while changed:
        changed = False
        for u in range(len(nbr)):
            hi = nbr[u] >> (u + 1) << (u + 1)
            if not inside >> u & 1:
                hi &= inside
            for v in _bits(hi):
                common = nbr[u] & nbr[v]
                for w in _bits(common ^ (1 << u) ^ (1 << v)):
                    if not common & ~nbr[w]:
                        nbr[u] ^= 1 << v
                        nbr[v] ^= 1 << u
                        removed.append((u, v, w))
                        changed = True
                        break
    return [x ^ (1 << i) for i, x in enumerate(nbr)], removed


def _normalize_subset(points, vertex_subset) -> np.ndarray:
    if vertex_subset is None:
        return np.arange(len(points))
    out = np.asarray(sorted(int(v) for v in vertex_subset), dtype=int)
    return out


# --- smallest enclosing ball (move-to-front, deterministic input order) ----

def _circumball(S):
    """Smallest ball with all points of S on its boundary (|S| <= dim+1).

    Solves the perpendicular-bisector system by least squares; returns
    (center, squared radius), or (None, -1) for empty S.
    """
    S = [np.asarray(p, float) for p in S]
    if not S:
        return None, -1.0
    base = S[0]
    if len(S) == 1:
        return base, 0.0
    if len(S) == 2:
        # the midpoint: exact on grid points, where least squares is not
        return (base + S[1]) / 2, float(((S[1] - base) ** 2).sum()) / 4
    # center lies in the affine hull of S: c = base + sum w_j (p_j - base),
    # with 2 G w = (|p_j - base|^2)_j, G the Gram matrix
    B = np.array([p - base for p in S[1:]])
    G = B @ B.T
    h = np.array([float(b @ b) for b in B])
    w, *_ = np.linalg.lstsq(2.0 * G, h, rcond=None)
    c = base + B.T @ w
    r2 = float(((c - base) ** 2).sum())
    return c, r2


def _seb(points) -> Tuple[Optional[np.ndarray], float]:
    """Smallest enclosing ball (Welzl, deterministic input order).

    Returns (center, squared radius).  Intended for small sets (simplex
    vertex lists), so plain recursion is fine.
    """
    pts = [np.asarray(p, float) for p in points]
    dim = len(pts[0]) if pts else 0

    def welzl(i, boundary):
        if i == len(pts) or len(boundary) == dim + 1:
            return _circumball(boundary)
        c, r2 = welzl(i + 1, boundary)
        p = pts[i]
        if c is not None and float(((p - c) ** 2).sum()) <= r2 * (1 + 1e-12) + 1e-24:
            return c, r2
        return welzl(i + 1, boundary + [p])

    return welzl(0, [])


def min_enclosing_radius(points_subset) -> float:
    """Radius of the smallest ball enclosing the given points."""
    _, r2 = _seb(list(points_subset))
    return math.sqrt(max(r2, 0.0))


def cech(points: np.ndarray, vertex_subset, alpha: float,
         max_dim: int) -> SimplicialComplex:
    """Cech complex: simplex present iff its min enclosing ball radius <= alpha.

    Candidates are drawn from the Rips complex at the same scale (a set with
    enclosing radius <= alpha has diameter <= 2*alpha), then filtered exactly.
    """
    points = np.asarray(points, dtype=float)
    base = rips(points, vertex_subset, alpha, max_dim)
    thr2 = alpha * alpha * (1 + 1e-12) + 1e-24
    simp: Dict[int, List[Tuple[int, ...]]] = {}
    kept_prev = None
    for d in sorted(base.simplices):
        if d <= 1:
            simp[d] = list(base.simplices[d])
            kept_prev = set(simp[d])
            continue
        kept = []
        for s in base.simplices[d]:
            # face closure: all facets must have survived
            if any(s[:k] + s[k + 1:] not in kept_prev for k in range(d + 1)):
                continue
            _, r2 = _seb([points[v] for v in s])
            if r2 <= thr2:
                kept.append(s)
        if kept:
            simp[d] = kept
            kept_prev = set(kept)
        else:
            break
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
    points = np.asarray(points, dtype=float)
    c = np.asarray(center, dtype=float)
    sq = ((points - c) ** 2).sum(-1)
    return np.flatnonzero(sq >= radius * radius)


@dataclass
class QuotientPairComplex:
    """Relative chain complex of (full complex, complex after ball deletion).

    ``basis[d]`` lists the d-simplices having >= 1 vertex strictly inside the
    deleted ball; boundaries drop faces outside the basis.  Built locally:
    only sample points within ``b + 2a`` of the center participate, which
    provably yields the same quotient as the full complex.
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

    def boundary_columns(self, d: int):
        """Restricted boundary of the basis d-simplices.

        Returns (nrows, list of columns), each column a list of
        (row index, sign) with sign in {+1, -1}; faces outside the basis are
        dropped.  Rows index the (d-1)-basis.
        """
        rows = self._index.get(d - 1, {})
        cols = []
        for s in self.basis.get(d, []):
            col = []
            for k in range(d + 1):
                face = s[:k] + s[k + 1:]
                r = rows.get(face)
                if r is not None:
                    col.append((r, -1 if k % 2 else 1))
            col.sort()
            cols.append(col)
        return len(rows), cols


def quotient_pair(points: np.ndarray, center, a: float, b: float,
                  flavor: str = "rips", max_dim: int = 2) -> QuotientPairComplex:
    """Quotient chain complex computing the relative homology of the pair
    (complex at scale a, same complex after deleting the open b-ball at center).
    """
    if a <= 0:
        raise ValueError("scale a must be positive")
    if b < 0:
        raise ValueError("ball radius b must be >= 0")
    points = np.asarray(points, dtype=float)
    c = np.asarray(center, dtype=float)
    basis: Dict[int, List[Tuple[int, ...]]] = {}
    if b > 0:
        sq = ((points - c) ** 2).sum(-1)
        local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
        cx = build_complex(points, local, a, max_dim, flavor)
        near = sq < b * b
        for d, ss in cx.simplices.items():
            kept = [s for s in ss if any(near[v] for v in s)]
            if kept:
                basis[d] = kept
    return QuotientPairComplex(c, a, b, flavor, max_dim, basis)


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

    def boundary_columns(self):
        """(columns, dims, levels) for persistence over all simplices.

        Row/column index space is the simplex order; each column lists
        (row, sign) for the facets of its simplex (vertices get empty
        columns).
        """
        index = {s: i for i, s in enumerate(self.simplices)}
        cols = []
        for s in self.simplices:
            col = []
            if len(s) > 1:
                for k in range(len(s)):
                    face = s[:k] + s[k + 1:]
                    col.append((index[face], -1 if k % 2 else 1))
                col.sort()
            cols.append(col)
        return cols


def _coned_level(points, center, a, b, flavor, max_dim, omega):
    """Simplices of X ∪ ωA at one (scale, ball) level, as sorted tuples.

    ω is always included as an isolated vertex, so the construction also
    covers A = ∅.
    """
    X = build_complex(points, None, a, max_dim, flavor)
    keepers = delete_ball(points, center, b)
    A = build_complex(points, keepers, a, max_dim, flavor)
    out = set()
    for d, ss in X.simplices.items():
        out.update(ss)
    out.add((omega,))
    for d, ss in A.simplices.items():
        if d + 1 > max_dim:
            continue
        for s in ss:
            out.add(s + (omega,))
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
