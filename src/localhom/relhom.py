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
query, Rips or Cech, builds both levels locally and strong-collapses each
one, at every lmax: a Cech level is its local Rips graph less the cofaces
of its bad simplices (``complexes._bad_simplices``), which the collapse
keeps (``complexes.collapse_vertices``).  A level-1 simplex maps by the
level-2 collapse's vertex map, and one stacked matrix per degree is reduced
instead of a kernel basis (Cohen-Steiner, Edelsbrunner, Harer & Morozov,
"Persistent homology for kernels, images, and cokernels", SODA 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from .complexes import (QuotientPairComplex, _bad_simplices, _bitmasks, _clique_expand,
                        _induced, _pair_basis, boundary, build_complex,
                        collapse_vertices, cone_pair, delete_ball, quotient_pair)
from .fieldla import (_bits, _require_prime, entries, kernel_basis, lane_width, pack,
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
    """Raises ``ValueError`` unless no scale or radius is NaN, the levels
    nest with a1 > 0 and b2 >= 0, ``flavor`` is known, q is prime and
    lmax >= 0."""
    a1, b1 = level1
    a2, b2 = level2
    if a1 != a1 or b1 != b1 or a2 != a2 or b2 != b2:
        raise ValueError("scales and ball radii must not be NaN")
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


@dataclass(frozen=True, slots=True)
class QueryResult:
    """One engine query: ``by_degree[d]`` is the image rank in degree d, for
    d = 0..lmax.  A tuple of small ints takes a quarter of the memory of a
    dict, which counts for a caller that keeps every result; ``ranks`` gives
    them as a dict.  Results are immutable, so an engine hands out one
    instance per distinct rank tuple."""

    by_degree: Tuple[int, ...]

    @property
    def ranks(self) -> Dict[int, int]:
        return dict(enumerate(self.by_degree))


class _Centre:
    """What an engine keeps of the centre of its latest query: every
    point's squared distance ``sq`` to it, its neighbourhood, and the
    level-2 pair of the latest b2.

    Local ids, one order per centre: the neighbourhood ``local`` holds the
    ids within the largest radius built for, sorted by distance to the
    centre with ties in index order, and ``sqs`` their sq.  Every local set
    at this centre, at any scale and ball, is a prefix of that order, so
    local vertex i is ``local[i]`` in the graphs and pairs of both levels.
    """

    __slots__ = ("key", "sq", "local", "sqs", "graphs", "level2")

    def __init__(self, key: bytes, sq: np.ndarray):
        self.key = key
        self.sq = sq
        self.local = self.sqs = None
        # scale -> (ball radius built for, closed-neighbourhood bitmasks of
        # the local vertices within that ball + 2 * scale)
        self.graphs = {}
        self.level2 = (None, None)      # (b2, pair)


class ImageRankEngine:
    """Evaluates many image-rank queries sharing one scale configuration.

    Each query has a level-1 basis S (``_level1``), and one reduction of
    [B2 | S] per degree answers it.  The column of s in S holds its level-2
    image i(s) in rows 0..n2-1 and its restricted level-1 boundary in rows
    n2 and up.  Pivots are lowest nonzero rows, so the S columns' lows below
    n2 count the image rank, rank(B2 + i(Z1)) - rank(B2), and all lows at n2
    and up count |S| - dim Z1.

    Both levels are a ``_CollapsedPair``, for Rips and Cech alike and at
    every lmax: built on the centre's local graph at the level's scale and
    ball, less the cofaces of the level's bad simplices for Cech
    (``_bad_simplices``), and strong-collapsed.  S is the level-1 core's
    simplices that meet the larger ball, up to degree lmax, and a level-1
    simplex maps by the vertex map of the level-2 collapse.  Both are in
    local ids, one order per centre (``_Centre``), so S passes to level 2
    as it is.  No global complex is read.

    The engine keeps what it learnt about the centre of its latest query
    (``_Centre``): the squared distances, one neighbourhood with a local
    Rips graph per scale, which a query with a smaller ball slices
    (``_graph``), and the level-2 pair of the latest b2.  One distance block
    gives both scales' graphs (``_neighbourhood``).  A query at a new
    centre replaces it.  So a scan of ball radii around one centre builds
    a few neighbourhoods and one level-2 pair per b2.  Level-1 pairs are
    built per query.

    Set-up rejects a sample with a non-finite coordinate, builds the global
    level-1 complex (scale a1, to lmax) and checks that its simplices key as
    int64; no query reads it.  Results are identical to sequential
    per-point evaluation with ``image_rank``.
    """

    def __init__(self, points: np.ndarray, level1, level2,
                 flavor: str = "rips", q: int = 2, lmax: int = 1):
        _check_levels(level1, level2, flavor, q, lmax)
        self.points = np.asarray(points, dtype=float)
        if not np.isfinite(self.points).all():
            raise ValueError("sample points must have finite coordinates")
        self.a1, self.b1 = level1
        self.a2, self.b2 = level2
        self.flavor = flavor
        self.q = q
        self.lmax = lmax
        self.base = len(self.points) + 1
        self._check_keys(build_complex(self.points, None, self.a1, lmax, flavor))
        self._at: Optional[_Centre] = None
        # rank tuple -> its one QueryResult
        self._results: Dict[Tuple[int, ...], QueryResult] = {}

    @property
    def kernel(self) -> str:
        """The pairs of every query, for reports."""
        return "local vertex collapse"

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

    def query(self, center, keep_detail: bool = False,
              b1: Optional[float] = None, b2: Optional[float] = None) -> QueryResult:
        """One image-rank query; ``b1``/``b2`` override the default deleted-ball
        radii (the complex scales stay fixed per engine).  Negative or NaN
        radii raise ``ValueError``, as in ``quotient_pair``, and so does a
        centre that is not one point of the sample's dimension with finite
        coordinates.

        Queries at the centre of the latest one reuse its distances, its
        local graphs and, at the same ``b2``, its level-2 pair: so a run of
        queries that varies only ``b1``, such as one column of an explorer
        scan, builds one level-2 pair, and a whole scan builds two
        neighbourhoods.  Equal ranks return the same ``QueryResult``.

        A query returns ranks only.  ``keep_detail`` stays as a keyword, as
        the benchmark's engine wrapper passes it by name, and must be False.
        """
        if keep_detail:
            raise ValueError("queries keep no detail: keep_detail must be False")
        center = np.asarray(center, dtype=float)
        if center.shape != self.points.shape[1:]:
            raise ValueError(f"centre of shape {center.shape} for points of "
                             f"shape {self.points.shape[1:]}")
        if b1 is None:
            b1 = self.b1
        if b2 is None:
            b2 = self.b2
        if b1 != b1 or b2 != b2:
            raise ValueError("ball radius b must not be NaN")
        if b2 > b1:
            raise ValueError("nesting violated: need b2 <= b1")
        if b2 < 0:
            raise ValueError("ball radius b must be >= 0")
        at = self._centre(center)
        ranks = [0] * (self.lmax + 1)
        # an empty smaller ball leaves the level-2 basis empty in every degree
        if not (at.sq < b2 * b2).any():
            return self._result(ranks)
        self._cover(at, b1, b2)
        level1 = self._level1(at, b1)
        pair = None
        for ell in range(self.lmax + 1):
            if ell not in level1:
                continue
            if pair is None:
                pair = self._pair(at, b2)
            n2 = pair.nrows(ell)
            if not n2:
                continue
            simplices, bnd1 = level1[ell]
            cols = pair.boundary_columns(ell)
            nb2 = len(cols)
            cols += pair.stacked_columns(ell, simplices, bnd1, n2)
            lows, _ = reduce_columns(cols, self.q)
            ranks[ell] = _count_below(lows[nb2:], n2)
        return self._result(ranks)

    def _result(self, ranks: list) -> QueryResult:
        """The one ``QueryResult`` this engine returns for these ranks."""
        key = tuple(ranks)
        out = self._results.get(key)
        if out is None:
            out = self._results[key] = QueryResult(key)
        return out

    def _centre(self, center: np.ndarray) -> _Centre:
        """The kept state of ``center``, made anew unless it is the latest
        query's centre.  A centre with a non-finite coordinate raises
        ``ValueError``; it is never kept, so only a new centre is read."""
        key = center.tobytes()
        if self._at is None or self._at.key != key:
            if not all(map(math.isfinite, center.tolist())):
                raise ValueError("centre coordinates must be finite")
            self._at = _Centre(key, sq_dists(self.points, center))
        return self._at

    def _cover(self, at: _Centre, b1: float, b2: float) -> None:
        """Makes the centre's graphs cover the ball b1 at scale a1 and b2 at
        a2, building its neighbourhood unless both kept graphs were built
        for balls at least as large.  A build makes both scales' graphs:
        for the balls asked at a centre's first build, and for max(b,
        default b1) after one, so that a scan whose radii stay within the
        default builds twice.  With a1 == a2 both levels share one graph,
        built for b1 >= b2.
        """
        want = {self.a2: b2, self.a1: b1}
        g = at.graphs
        if all(a in g and g[a][0] >= b for a, b in want.items()):
            return
        if g:
            want = {a: max(b, self.b1) for a, b in want.items()}
        at.local, at.sqs, bits = _neighbourhood(self.points, at.sq, want)
        at.graphs = {a: (b, bits[a]) for a, b in want.items()}

    def _graph(self, at: _Centre, a: float, b: float):
        """The local Rips graph at (a, b) around the centre ``at``, on local
        vertices 0..m-1, the ids within b + 2a: nb, the number in the open
        b-ball, and the closed-neighbourhood bitmasks.

        It is sliced from the centre's graph at scale a, which ``_cover``
        built for a ball >= b: local sets are prefixes of the centre's one
        order, and an edge depends only on its two points.
        """
        bits = at.graphs[a][1]
        m = int(np.searchsorted(at.sqs, (b + 2 * a) ** 2 * (1 + 1e-12), "right"))
        nb = int(np.searchsorted(at.sqs, b * b, "left"))
        if m < len(bits):
            mask = (1 << m) - 1
            bits = [x & mask for x in bits[:m]]
        return nb, bits

    def _collapsed(self, at: _Centre, a: float, b: float, top: int,
                   spanning: bool = False) -> "_CollapsedPair":
        """The collapsed pair at (a, b) around the centre ``at``, to degree
        ``top``; a Cech pair drops the cofaces of its local graph's bad
        simplices."""
        graph = self._graph(at, a, b)
        if self.flavor == "rips":
            return _CollapsedPair(graph, top, self.q, spanning)
        bad = _bad_simplices(self.points, at.local[:len(graph[1])], a)
        return _CollapsedPair(graph, top, self.q, bad=bad)

    def _level1(self, at: _Centre, b1: float) -> dict:
        """The level-1 basis of a query, per degree ell <= lmax with a basis
        simplex: the simplices, and their boundary columns over the
        degree-(ell - 1) basis.

        It is the basis of the collapsed level-1 pair at (a1, b1), as tuples
        of local ids.  Its core pair includes into the level-1 pair as a
        homotopy equivalence of pairs, so the image rank is the same.
        """
        pair = self._collapsed(at, self.a1, b1, self.lmax)
        return {ell: (ss, pair.boundary_columns(ell - 1) if ell else [0] * len(ss))
                for ell, ss in pair.simplices.items() if ss}

    def _pair(self, at: _Centre, b2: float) -> "_CollapsedPair":
        """The level-2 pair at the centre ``at`` with smaller ball radius
        ``b2``.  It depends on nothing else, and it is read-only once built,
        so a query at the same centre and ``b2`` as the latest pair's reuses
        it."""
        if at.level2[0] != b2:
            at.level2 = (b2, self._collapsed(at, self.a2, b2, self.lmax + 1, True))
        return at.level2[1]

    def query_index(self, i: int, keep_detail: bool = False) -> QueryResult:
        return self.query(self.points[i], keep_detail=keep_detail)


def _neighbourhood(points, sq, balls: dict):
    """The local Rips graphs around a query's centre at each scale a of
    ``balls`` = {a: b}, ``sq`` holding every point's squared distance to the
    centre.

    The graph at (a, b) is on the vertices within b + 2a of the centre: only
    these carry chains of the pair with the open b-ball deleted (the
    excision ``quotient_pair`` relies on).  All are numbered in one order,
    by distance to the centre with ties in index order, so each scale's
    vertices are a prefix of the ids within the largest radius and a
    ball's are 0..nb-1.  One distance block over those ids gives every
    scale's edges, by thresholding its leading block at (2a)^2.  Returns
    the global ids in that order, their sq, and per scale the
    closed-neighbourhood bitmasks.
    """
    reach = [(b + 2 * a) ** 2 * (1 + 1e-12) for a, b in balls.items()]
    local = np.flatnonzero(sq <= max(reach))
    local = local[np.argsort(sq[local], kind="stable")]
    sqs = sq[local]
    size = dict(zip(balls, np.searchsorted(sqs, reach, "right").tolist()))
    pts = points[local]
    bits = {a: [] for a in balls}
    # rows in blocks of 256, so the temporaries stay a few MB on large sets
    for lo in range(0, len(pts), 256):
        # ``block`` stays bound until the next one is made: freed first, it
        # lets malloc trim the heap, and the next block faults its pages in
        # again (4x the page faults and 1.5x the time on 1500 points)
        block = sq_dists(pts[lo:lo + 256], pts)
        for a, m in size.items():
            if lo < m:
                bits[a] += _bitmasks(block[:m - lo, :m] <= (2.0 * a) ** 2)
    return local, sqs, bits


class _CollapsedPair:
    """The Rips or Cech pair (X, A) at scale a with the open b-ball
    deleted, for either level of a query and every lmax, in local ids, one
    order per centre.

    The pair is built on the centre's local graph at (a, b), ``graph`` =
    (nb, closed-neighbourhood bitmasks of local vertices 0..m-1).  X is the
    clique complex of the graph less the cofaces of the vertex sets in
    ``bad``: none for Rips, the local bad simplices for Cech.  It is shrunk
    by ``collapse_vertices``: far vertices are tried first, each onto its
    nearest dominating neighbour.  Its basis in degree d <= ``top`` is the
    d-simplices of the live core that meet the ball, as tuples of local
    ids; with ``spanning``, degree ``top`` holds the spanning set of
    ``_clique_expand`` instead, whose boundaries span the relative
    boundaries of degree top - 1.  That needs a flag complex, so a Cech
    pair keeps every top simplex.  Rows index the degrees below ``top``.
    Only the live core is expanded into cliques.

    As a level-2 pair it gives the boundary columns of degree ell + 1 over
    its degree-ell basis, and the stacked columns of level-1 basis
    simplices (``stacked_columns``).  It maps a level-1 simplex, in the
    same local ids, by f, the composed vertex map of the collapse: to the
    sorted f-image of its vertices, with the sign of the sorting
    permutation.  The image is 0 when the simplex has a vertex at or past
    m, off the local set, is degenerate under f, or its image has no row.
    f is a simplicial map of pairs, homotopy inverse to the inclusion of
    the core, so the image rank is that of the uncollapsed pair.  A
    level-1 pair never maps a simplex, so f is built on the first
    ``_images`` call.
    """

    def __init__(self, graph, top: int, q: int, spanning: bool = False, bad=()):
        self.q = q
        nb, adj = graph
        self.m = len(adj)
        live, self._onto = collapse_vertices(adj, (1 << nb) - 1, bad)
        core = {i: adj[i] & live ^ 1 << i for i in _bits(live)}
        self.simplices = _clique_expand(range(self.m), core, top, (1 << nb) - 1, spanning)
        # a Cech core drops the cliques that hold a bad simplex of the core
        if held := bad and [t for t in bad if not t & ~live]:
            for d, ss in self.simplices.items():
                if d >= 2:
                    masks = (sum(1 << v for v in s) for s in ss)
                    self.simplices[d] = [s for s, x in zip(ss, masks)
                                         if all(t & ~x for t in held)]
        self.rows = {d: {s: r for r, s in enumerate(ss)}
                     for d, ss in self.simplices.items() if d < top}
        self._bnd = {}
        self.f = None

    def _vertex_map(self) -> list:
        """f on local ids 0..m-1."""
        if self.f is None:
            f = list(range(self.m))
            # each vertex after the one it went onto
            for v, w in reversed(self._onto):
                f[v] = f[w]
            self.f = f
        return self.f

    def nrows(self, ell: int) -> int:
        return len(self.rows.get(ell, ()))

    def boundary_columns(self, ell: int) -> list:
        if ell not in self._bnd:
            self._bnd[ell] = boundary(self.simplices.get(ell + 1, []),
                                      self.rows.get(ell, {}), self.q)
        return list(self._bnd[ell])

    def stacked_columns(self, ell: int, simplices, boundary: list,
                        shift: int) -> list:
        """Per level-1 basis simplex (one of ``simplices``, in local ids):
        its image in rows 0..nrows(ell)-1 plus its restricted level-1
        ``boundary`` column moved up by ``shift`` >= nrows(ell) rows."""
        shift *= lane_width(self.q)
        return [x | b << shift for x, b in zip(self._images(ell, simplices), boundary)]

    def _images(self, ell: int, simplices) -> list:
        rows, q, k = self.rows.get(ell, {}), self.q, lane_width(self.q)
        f, m = self._vertex_map(), self.m
        image = f.__getitem__
        out = []
        for s in simplices:
            # local tuples ascend, so a vertex off the local set is s[-1] >= m
            r = rows.get(tuple(sorted(map(image, s)))) if s[-1] < m else None
            if r is None:
                out.append(0)
                continue
            # the sign of the permutation that sorts the image, by its
            # inversion parity; a sign is 1 at q = 2 and for a vertex
            odd = q > 2 and ell and sum(f[x] > f[y] for x, y in combinations(s, 2)) & 1
            out.append((q - 1 if odd else 1) << r * k)
        return out
