"""Relative homology of deleted-ball pairs and inclusion-induced image ranks.

Two independent computations of the same quantity:
  * the direct method — quotient chain complexes plus the formula
    rank(im) = rank([i(Z1) | B2]) - rank(B2), where Z1 is a basis of relative
    cycles at level 1, i is the basis-diagonal chain map into level 2, and
    B2 spans the relative boundaries at level 2.  For Rips, B2 in the top
    degree is the boundaries of the simplices with no common neighbour
    below their least vertex, which span the rest by ∂∂ = 0 on their
    cofaces (``complexes._clique_expand``); Cech keeps every simplex;
  * the coned oracle — two-level persistence on the cone model
    H(X, A) = reduced H(X ∪ ωA).
The direct method is the production path; the oracle cross-checks it.
Every rank comes from the one column reduction of packed int columns,
``fieldla.reduce_columns``; Z1 is read off the same reduction with unit
columns stacked under the level-1 boundary (``fieldla.kernel_basis``).
``ImageRankEngine`` evaluates the direct method for many query points.  A
Rips query builds both levels locally and strong-collapses each one, at
every lmax; a level-1 simplex maps by the level-2 collapse's vertex map.  A
Cech query's pairs are views of shared global complexes.  Either reduces
one stacked matrix per degree instead of a kernel basis (Cohen-Steiner,
Edelsbrunner, Harer & Morozov, "Persistent homology for kernels, images,
and cokernels", SODA 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .complexes import (QuotientPairComplex, _adjacency_bits, _clique_expand, _induced,
                        _pair_basis, boundary, build_complex, collapse_vertices,
                        cone_pair, delete_ball, quotient_pair)
from .fieldla import (_require_prime, entries, kernel_basis, lane_width, pack,
                      persistent_reduce, rank, reduce_columns)
from .geometry import sq_dists


@dataclass(frozen=True)
class QuerySpec:
    """One image-rank query: nested (scale, deleted-ball radius) levels.

    Level 1 must include into level 2: a1 <= a2 (complexes grow) and
    b2 <= b1 (deleted-ball subcomplexes grow); a1 > 0 and b2 >= 0.
    """

    p: int                      # sample point index (ball center)
    level1: Tuple[float, float]  # (a1, b1)
    level2: Tuple[float, float]  # (a2, b2)
    flavor: str = "rips"
    q: int = 2
    lmax: int = 1

    def __post_init__(self):
        _check_levels(self.level1, self.level2, self.flavor, self.q, self.lmax)


def _check_levels(level1, level2, flavor: str, q: int, lmax: int) -> None:
    """Raises ``ValueError`` unless the levels nest with a1 > 0 and b2 >= 0,
    ``flavor`` is known, q is prime and lmax >= 0."""
    a1, b1 = level1
    a2, b2 = level2
    if a1 > a2 or b2 > b1:
        raise ValueError("nesting violated: need a1 <= a2 and b2 <= b1")
    if a1 <= 0:
        raise ValueError("scale a must be positive")
    if b2 < 0:
        raise ValueError("ball radius b must be >= 0")
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    if flavor not in ("rips", "cech"):
        raise ValueError(f"unknown flavor {flavor!r}")
    _require_prime(q)


@dataclass
class HomologySignature:
    """Per-degree ranks of the inclusion-induced image — the local homology
    estimate."""

    ranks: Dict[int, int]
    method: str

    def rank(self, ell: int) -> int:
        return self.ranks.get(ell, 0)

    def nonzero(self) -> Dict[int, int]:
        return {k: v for k, v in self.ranks.items() if v}


def relative_betti(Q: QuotientPairComplex, ell: int, q: int = 2) -> int:
    """dim ker of the degree-ell restricted boundary minus rank of the
    degree-(ell+1) one, over GF(q)."""
    if Q.max_dim < ell + 1:
        raise ValueError(f"pair built to dimension {Q.max_dim}, need {ell + 1}")
    n_ell = Q.dim_count(ell)
    if n_ell == 0:
        return 0
    r_d = rank(Q.boundary_columns(ell, q), q)
    r_up = rank(Q.boundary_columns(ell + 1, q), q)
    return n_ell - r_d - r_up


def _count_below(lows, n2: int) -> int:
    """Reduced columns of a stacked matrix whose low lies in rows 0..n2-1."""
    return sum(1 for low in lows if 0 <= low < n2)


def image_rank(spec: QuerySpec, points: np.ndarray) -> HomologySignature:
    """Rank of H(level-1 pair) -> H(level-2 pair) per degree (direct method).

    The level-1 pair is ``quotient_pair``'s, and so is the level-2 pair in
    degrees up to lmax, where its simplices index rows.  Its degree-(lmax+1)
    simplices are only ever columns of B2, and the rank reads only their
    span; for Rips they are the spanning set of ``_clique_expand``, the
    simplices with no common neighbour below their least vertex, whose
    boundaries span the relative boundaries by ∂∂ = 0 on the cofaces of a
    flag complex.  A Cech complex is not a flag complex and keeps them all.
    """
    points = np.asarray(points, dtype=float)
    center = points[spec.p]
    a1, b1 = spec.level1
    a2, b2 = spec.level2
    q, lmax = spec.q, spec.lmax
    Q1 = quotient_pair(points, center, a1, b1, spec.flavor, lmax)
    basis2 = _pair_basis(points, center, a2, b2, spec.flavor, lmax + 1, spanning=True)
    top = basis2.pop(lmax + 1, [])
    Q2 = QuotientPairComplex(center, a2, b2, spec.flavor, lmax, basis2)
    ranks = {}
    for ell in range(lmax + 1):
        ranks[ell] = 0
        if Q1.dim_count(ell) == 0 or Q2.dim_count(ell) == 0:
            continue
        Z1 = kernel_basis(Q1.boundary_columns(ell, q), q)
        if not Z1:
            continue
        # basis-diagonal chain map into level 2: a level-1 basis simplex maps
        # to itself when it still meets the smaller ball, else to 0
        row2 = Q2._index[ell]
        mapped = [row2.get(s, -1) for s in Q1.basis[ell]]
        iZ1 = pack([[(mapped[r], c) for r, c in entries(z, q) if mapped[r] >= 0]
                    for z in Z1], q)
        B2 = Q2.boundary_columns(ell + 1, q) if ell < lmax else boundary(top, row2, q)
        lows, _ = reduce_columns(B2 + iZ1, q)
        ranks[ell] = sum(1 for low in lows[len(B2):] if low >= 0)
    return HomologySignature(ranks, method="direct")


def image_rank_oracle(spec: QuerySpec, points: np.ndarray) -> HomologySignature:
    """Independent coned-persistence computation of the same image ranks."""
    points = np.asarray(points, dtype=float)
    center = points[spec.p]
    cp = cone_pair(points, center, spec.level1, spec.level2,
                   spec.flavor, spec.lmax + 1)
    surv = persistent_reduce(cp.boundary_columns(spec.q), spec.q, cp.levels, cp.dims)
    ranks = {}
    for ell in range(spec.lmax + 1):
        v = surv.get(ell, 0)
        if ell == 0:
            v -= 1          # reduced homology: the cone vertex class never dies
        ranks[ell] = max(v, 0)
    return HomologySignature(ranks, method="coned")


def _absolute_betti(cx, q: int) -> Dict[int, int]:
    """Betti numbers of a simplicial complex over GF(q), all built degrees."""
    ranks = {}
    top = max(cx.simplices) if cx.simplices else -1
    for d in range(1, top + 1):
        rows = {s: i for i, s in enumerate(cx.simplices.get(d - 1, []))}
        ranks[d] = rank(boundary(cx.simplices.get(d, []), rows, q), q)
    out = {}
    for d in range(0, top + 1):
        out[d] = cx.count(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return out


def exactness_check(points: np.ndarray, center, a: float, b: float,
                    flavor: str = "rips", q: int = 2) -> bool:
    """Long-exact-sequence and Euler-count sanity for one deleted-ball pair.

    Builds X to full dimension, A as its subcomplex induced on the vertices
    outside the open ball; checks that the alternating sums of
    dim H(A), dim H(X), dim H(X, A) cancel, and that the relative Euler
    characteristic equals the simplex-count difference.
    """
    points = np.asarray(points, dtype=float)
    full = len(points) - 1
    X = build_complex(points, None, a, full, flavor)
    A = _induced(X, delete_ball(points, center, b))
    Q = quotient_pair(points, center, a, b, flavor, full + 1)
    bX = _absolute_betti(X, q)
    bA = _absolute_betti(A, q)
    top = max([d for d in X.simplices] + [0])
    alt = 0
    euler_rel = 0
    count_rel = 0
    for d in range(top + 2):
        hx = bX.get(d, 0)
        ha = bA.get(d, 0)
        hr = relative_betti(Q, d, q) if Q.dim_count(d) else 0
        alt += (-1) ** d * (ha - hx + hr)
        euler_rel += (-1) ** d * hr
        count_rel += (-1) ** d * (X.count(d) - A.count(d))
    return alt == 0 and euler_rel == count_rel


# ---------------------------------------------------------------------------
# Batch engine


@dataclass
class QueryResult:
    """One engine query: the image rank per degree."""

    ranks: Dict[int, int]


class ImageRankEngine:
    """Evaluates many image-rank queries sharing one scale configuration.

    Each query has a level-1 basis S (``_level1``), and one reduction of
    [B2 | S] per degree answers it.  The column of s in S holds its level-2
    image i(s) in rows 0..n2-1 and its restricted level-1 boundary in rows
    n2 and up.  Pivots are lowest nonzero rows, so the S columns' lows below
    n2 count the image rank, rank(B2 + i(Z1)) - rank(B2), and all lows at n2
    and up count |S| - dim Z1.  Both levels come from one of two places,
    chosen by ``flavor``:

      * Rips: one ``_CollapsedRipsPair`` per level, at every lmax, built on
        the vertices near the level's ball and strong-collapsed.  S is the
        level-1 core's simplices that meet the larger ball, up to degree
        lmax, and a level-1 simplex maps by the vertex map of the level-2
        collapse.  No global complex is read;
      * Cech: S is the global level-1 complex's simplices that meet the
        larger ball, found by a mask scan, and the level-2 pair is a
        ``_GlobalPair``, the view of a global level-2 complex (scale a2,
        built to lmax + 1) under the query's ball masks.  Cech complexes
        are not flag complexes, so the vertex collapse does not apply.

    Set-up builds the global level-1 complex (scale a1, to lmax) for both
    flavors and checks that its simplices key as int64; only Cech queries
    read it.  Results are identical to sequential per-point evaluation with
    ``image_rank``.
    """

    def __init__(self, points: np.ndarray, level1, level2,
                 flavor: str = "rips", q: int = 2, lmax: int = 1):
        _check_levels(level1, level2, flavor, q, lmax)
        self.points = np.asarray(points, dtype=float)
        self.a1, self.b1 = level1
        self.a2, self.b2 = level2
        self.flavor = flavor
        self.q = q
        self.lmax = lmax
        self.base = len(self.points) + 1
        c1 = build_complex(self.points, None, self.a1, lmax, flavor)
        self._check_keys(c1)
        self.arr1, _, self.face1 = self._index(c1)
        if flavor == "cech":
            c2 = build_complex(self.points, None, self.a2, lmax + 1, flavor)
            self._check_keys(c2)
            self.arr2, self.keys2, self.face2 = self._index(c2)
        # (key, pair): the level-2 pair of the latest query that built one
        self._memo = (None, None)

    @property
    def kernel(self) -> str:
        """The level-2 pair of every query, for reports."""
        if self.flavor == "rips":
            return "local rips vertex collapse"
        return "global level-2 basis"

    def _check_keys(self, cx) -> None:
        """Simplices are keyed as base-(n+1) int64 numbers; the key of the
        lexicographically last simplex of each degree is the largest."""
        top = int(np.iinfo(np.int64).max)
        for d, ss in cx.simplices.items():
            key = 0
            for v in (ss[-1] if ss else ()):
                key = key * self.base + v
            if key > top:
                raise ValueError(f"{self.base - 1} points are too many to key the "
                                 f"{d}-simplices of the complex as int64")

    def _index(self, cx):
        """Per degree: simplex arrays, their sorted keys, and facet indices."""
        arr = {d: np.array(ss, dtype=np.int64).reshape(len(ss), d + 1)
               for d, ss in cx.simplices.items()}
        keys = {d: self._pack(a, self.base) for d, a in arr.items()}
        face = {d: self._face_index(a, keys[d - 1], self.base)
                for d, a in arr.items() if d >= 1}
        return arr, keys, face

    @staticmethod
    def _pack(arr: np.ndarray, base: int) -> np.ndarray:
        keys = np.zeros(len(arr), dtype=np.int64)
        for k in range(arr.shape[1]):
            keys = keys * base + arr[:, k]
        return keys

    @staticmethod
    def _face_index(arr: np.ndarray, facet_keys: np.ndarray, base: int) -> np.ndarray:
        """(m, d+1) array: index of the k-th facet (vertex k removed) in the
        lexicographically sorted (d-1)-simplex array."""
        m, w = arr.shape
        out = np.empty((m, w), dtype=np.int64)
        for k in range(w):
            keys = ImageRankEngine._pack(np.delete(arr, k, axis=1), base)
            pos = np.searchsorted(facet_keys, keys)
            if not np.array_equal(facet_keys[pos], keys):
                raise AssertionError("face closure violated")
            out[:, k] = pos
        return out

    def query(self, center, keep_detail: bool = False,
              b1: Optional[float] = None, b2: Optional[float] = None) -> QueryResult:
        """One image-rank query; ``b1``/``b2`` override the default deleted-ball
        radii (the complex scales stay fixed per engine).  Negative radii
        raise ``ValueError``, as in ``quotient_pair``.

        The level-2 pair depends only on ``center`` and ``b2``.  The engine
        keeps the pair of its latest query, one entry, and a query with the
        same centre and ``b2`` reuses it; so a run of queries that varies only
        ``b1``, such as one column of an explorer scan, builds one pair.

        A query returns ranks only.  ``keep_detail`` stays as a keyword, as
        the benchmark's engine wrapper passes it by name, and must be False.
        """
        if keep_detail:
            raise ValueError("queries keep no detail: keep_detail must be False")
        center = np.asarray(center, dtype=float)
        if b1 is None:
            b1 = self.b1
        if b2 is None:
            b2 = self.b2
        if b2 > b1:
            raise ValueError("nesting violated: need b2 <= b1")
        if b2 < 0:
            raise ValueError("ball radius b must be >= 0")
        sq = sq_dists(self.points, center)
        near2 = sq < b2 * b2
        ranks = dict.fromkeys(range(self.lmax + 1), 0)
        # an empty smaller ball leaves the level-2 basis empty in every degree
        if not near2.any():
            return QueryResult(ranks)
        level1 = self._level1(sq, b1)
        pair = None
        for ell in ranks:
            if ell not in level1:
                continue
            if pair is None:
                pair = self._pair(center, sq, near2, b2)
            n2 = pair.nrows(ell)
            if not n2:
                continue
            simplices, bnd1 = level1[ell]
            cols = pair.boundary_columns(ell)
            nb2 = len(cols)
            cols += pair.stacked_columns(ell, simplices, bnd1, n2)
            lows, _ = reduce_columns(cols, self.q)
            ranks[ell] = _count_below(lows[nb2:], n2)
        return QueryResult(ranks)

    def _level1(self, sq, b1: float) -> dict:
        """The level-1 basis of a query, per degree ell <= lmax with a basis
        simplex: the simplices as rows of global vertex ids, and their
        boundary columns over the degree-(ell - 1) basis.

        For Rips it is the basis of the collapsed level-1 pair at (a1, b1).
        Its core pair includes into the level-1 pair as a homotopy
        equivalence of pairs, so the image rank is the same.  For Cech it is
        the global level-1 complex's simplices that meet the b1-ball, found
        by a mask scan.
        """
        if self.flavor == "rips":
            pair = _CollapsedRipsPair(self.points, sq, self.a1, b1, self.lmax, self.q)
            out = {}
            for ell, ss in pair.simplices.items():
                if ss:
                    arr = np.array(ss, dtype=np.int64).reshape(len(ss), ell + 1)
                    out[ell] = (pair.local[arr],
                                pair.boundary_columns(ell - 1) if ell else [0] * len(ss))
            return out
        near1 = sq < b1 * b1
        m1 = {d: near1[a].any(axis=1) for d, a in self.arr1.items()}
        out = {}
        for ell, mask1 in m1.items():
            b1idx = np.flatnonzero(mask1)
            if not len(b1idx):
                continue
            if ell == 0:
                bnd1 = [0] * len(b1idx)
            else:
                rmask = m1[ell - 1]
                bnd1 = _assemble(b1idx, self.face1[ell], rmask, _rows(rmask), self.q)
            out[ell] = (self.arr1[ell][b1idx], bnd1)
        return out

    def _pair(self, center: np.ndarray, sq, near2, b2: float) -> "_Level2Pair":
        """The level-2 pair at ``center`` with smaller ball radius ``b2``.  It
        depends on nothing else, and it is read-only once built, so a query
        with the same key as the latest one reuses its pair."""
        key = (center.tobytes(), float(b2))
        if self._memo[0] != key:
            pair = (_CollapsedRipsPair(self.points, sq, self.a2, b2, self.lmax + 1,
                                       self.q, spanning=True)
                    if self.flavor == "rips" else _GlobalPair(self, near2))
            self._memo = (key, pair)
        return self._memo[1]

    def query_index(self, i: int, keep_detail: bool = False) -> QueryResult:
        return self.query(self.points[i], keep_detail=keep_detail)


def _rows(mask: np.ndarray) -> np.ndarray:
    """Row of each simplex in the basis ``mask`` selects (valid where True)."""
    return np.cumsum(mask) - 1


def _assemble(simp_idx, face_idx, row_mask, loc, q: int):
    """Boundary columns restricted to a basis; facet k has sign (-1)^k."""
    faces = face_idx[simp_idx]
    k, nrows = lane_width(q), int(row_mask.sum())
    terms = []
    # per facet position i: each simplex's term, (-1)^i at its facet's row,
    # read from a table whose last entry, for row -1, is 0
    for i, fr in enumerate(np.where(row_mask[faces], loc[faces], -1).T.tolist()):
        table = [(-1) ** i % q << r * k for r in range(nrows)] + [0]
        terms.append(list(map(table.__getitem__, fr)))
    # the facets of a simplex have distinct rows, so no two terms share a lane
    return list(map(sum, zip(*terms)))


class _Level2Pair:
    """The level-2 pair of one query, seen through two operations: the
    boundary columns of degree ell + 1 over the pair's degree-ell basis, and
    the stacked columns of level-1 basis simplices.

    Subclasses give ``nrows``, ``boundary_columns`` and ``_images``, the
    image column of each level-1 basis simplex.
    """

    q: int

    def stacked_columns(self, ell: int, simplices: np.ndarray, boundary: list,
                        shift: int) -> list:
        """Per level-1 basis simplex (a row of the global ``simplices``): its
        image in rows 0..nrows(ell)-1 plus its restricted level-1 ``boundary``
        column moved up by ``shift`` >= nrows(ell) rows."""
        shift *= lane_width(self.q)
        return [x | b << shift for x, b in zip(self._images(ell, simplices), boundary)]


class _GlobalPair(_Level2Pair):
    """The level-2 pair of one query as a view of the engine's global level-2
    complex: its basis in degree d is the d-simplices meeting the smaller
    ball ``near2``, and a level-1 simplex maps to itself or, off the ball,
    to 0."""

    def __init__(self, engine: ImageRankEngine, near2: np.ndarray):
        self.q = engine.q
        self.engine = engine
        self.mask = {d: near2[a].any(axis=1) for d, a in engine.arr2.items()}
        self.loc = {d: _rows(m) for d, m in self.mask.items() if d <= engine.lmax}

    def nrows(self, ell: int) -> int:
        return int(self.mask[ell].sum()) if ell in self.mask else 0

    def boundary_columns(self, ell: int) -> list:
        up = self.mask.get(ell + 1)
        if up is None or not up.any():
            return []
        return _assemble(np.flatnonzero(up), self.engine.face2[ell + 1],
                         self.mask[ell], self.loc[ell], self.q)

    def _images(self, ell: int, simplices: np.ndarray) -> list:
        eng = self.engine
        g = np.searchsorted(eng.keys2[ell], eng._pack(simplices, eng.base))
        k = lane_width(self.q)
        rows = np.where(self.mask[ell][g], self.loc[ell][g], -1).tolist()
        return [1 << r * k if r >= 0 else 0 for r in rows]


def _local_graph(points, sq, a: float, b: float):
    """The Rips graph at scale a on the vertices within b + 2a of a query's
    centre, ``sq`` holding every point's squared distance to it.

    Only these vertices carry chains of the pair with the open b-ball
    deleted (the excision ``quotient_pair`` relies on).  They are numbered
    by distance to the centre, so the ball's are 0..nb-1.  Returns the
    global id of each local vertex, nb and the neighbourhood bitmasks.
    """
    local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
    local = local[np.argsort(sq[local], kind="stable")]
    nb = int((sq[local] < b * b).sum())
    return local, nb, _adjacency_bits(points, local, a)


class _CollapsedRipsPair(_Level2Pair):
    """The Rips pair (X, A) at scale a with the open b-ball deleted, for
    either level of a query and every lmax.

    The pair is built on ``_local_graph`` and shrunk by
    ``collapse_vertices``: far vertices are tried first, each onto its
    nearest dominating neighbour.  Its basis in degree d <= ``top`` is the
    d-simplices of the live core that meet the ball, as tuples of local
    vertices; with ``spanning``, degree ``top`` holds the spanning set of
    ``_clique_expand`` instead, whose boundaries span the relative
    boundaries of degree top - 1.  Rows index the degrees below ``top``.

    As a level-2 pair it maps a level-1 simplex by f, the composed vertex
    map of the collapse: to the sorted f-image of its vertices, with the
    sign of the sorting permutation.  The image is 0 when the simplex is
    degenerate under f, has a vertex outside the local set, or its image
    has no row.  f is a simplicial map of pairs, homotopy inverse to the
    inclusion of the core, so the image rank is that of the uncollapsed
    pair.
    """

    def __init__(self, points, sq, a: float, b: float, top: int, q: int,
                 spanning: bool = False):
        self.q = q
        self.local, nb, adj = _local_graph(points, sq, a, b)
        nbr, onto = collapse_vertices(adj, (1 << nb) - 1)
        f = list(range(len(self.local)))
        inside = (1 << nb) - 1
        # each vertex after the one it went onto
        for v, w in reversed(onto):
            f[v] = f[w]
            inside &= ~(1 << v)
        # f on global ids, -1 off the local set
        self.f = np.full(len(sq), -1, dtype=np.int64)
        self.f[self.local] = f
        self.simplices = _clique_expand(range(len(self.local)), nbr, top, inside,
                                        spanning)
        self.rows = {d: {s: r for r, s in enumerate(ss)}
                     for d, ss in self.simplices.items() if d < top}
        self._bnd = {}

    def nrows(self, ell: int) -> int:
        return len(self.rows.get(ell, ()))

    def boundary_columns(self, ell: int) -> list:
        if ell not in self._bnd:
            self._bnd[ell] = boundary(self.simplices.get(ell + 1, []),
                                      self.rows.get(ell, {}), self.q)
        return list(self._bnd[ell])

    def _images(self, ell: int, simplices: np.ndarray) -> list:
        rows, q, k = self.rows.get(ell, {}), self.q, lane_width(self.q)
        out = []
        for s in self.f[simplices].tolist():
            r = rows.get(tuple(sorted(s)))
            if r is None:
                out.append(0)
                continue
            # the sign of the permutation that sorts s, by its inversion
            # parity; a sign is 1 at q = 2 and for a vertex
            odd = q > 2 and ell and sum(x > y for i, x in enumerate(s)
                                        for y in s[i + 1:]) & 1
            out.append((q - 1 if odd else 1) << r * k)
        return out
