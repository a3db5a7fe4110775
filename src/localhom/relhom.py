"""Relative homology of deleted-ball pairs and inclusion-induced image ranks.

The estimate at a point is, per degree ell, the rank of the map
H(level-1 pair) -> H(level-2 pair) that inclusion induces, each pair a
Rips or Cech complex with an open ball deleted.  Two independent
computations give it:
  * the direct method, ``image_rank`` and ``ImageRankEngine``: one
    reduction per degree of the stacked matrix [B2 | S] (``_stacked_rank``;
    Cohen-Steiner, Edelsbrunner, Harer & Morozov, "Persistent homology for
    kernels, images, and cokernels", SODA 2009).  B2 spans the level-2
    relative boundaries over the n2 level-2 basis simplices.  S has one
    column per level-1 basis simplex s: its level-2 image i(s) in rows
    0..n2-1 and its level-1 relative boundary in rows n2 and up.  Pivots
    are lowest nonzero rows, so an S column's low falls below n2 only once
    its boundary part has cancelled, and those lows count
    rank(im) = rank([B2 | i(Z1)]) - rank(B2), Z1 the level-1 relative
    cycles.  For Rips, B2 in the top degree is the boundaries of the
    simplices with no common neighbour below their least vertex, which
    span the rest by ∂∂ = 0 on their cofaces (``complexes._clique_expand``);
    Cech keeps every simplex;
  * the coned oracle, ``image_rank_oracle``: two-level persistence on the
    cone model H(X, A) = reduced H(X ∪ ωA).  It shares no step of the
    formula, so it is the formula's arbiter: ``localhom check``,
    acceptance criterion 4 and the oracle comparisons of the tests.
Every rank comes from the one column reduction of packed int columns,
``fieldla.reduce_columns``.  Both direct methods answer through one
per-degree loop, ``_image_ranks``, over one pair interface, that of
``QuotientPairComplex``, and differ only in their pairs: ``image_rank``'s
are ``QuotientPairComplex``es, mapped basis-diagonally (a level-1 basis
simplex to its own level-2 row, or to 0 once it misses the smaller ball);
``ImageRankEngine``'s are strong-collapsed local pairs (``_CollapsedPair``),
Rips or Cech at every lmax, mapped by the level-2 collapse's vertex map.
Input goes through the one gate of ``complexes``; this module adds only
the prime q (``fieldla._require_prime``) and a centre index in range(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from .complexes import (QuotientPairComplex, _adjacency_bits, _bad_simplices,
                        _check_levels, _clique_expand, _finite_centre, _finite_points,
                        _induced, _pair_basis, boundary, build_complex, collapse_vertices,
                        cone_pair, delete_ball, quotient_pair)
from .fieldla import (_bits, _require_prime, lane_width, persistent_reduce, rank,
                      reduce_columns)
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
        _check_levels(self.level1, self.level2, self.flavor, self.lmax)
        _require_prime(self.q)


class _Ranks(dict):
    """A read-only dict of per-degree ranks, shared by every signature with
    the same mapping (``_shared_ranks``).  Its mutators raise ``TypeError``;
    ``json``, ``repr`` and equality see the plain dict, and copies and
    pickles come back as the shared instance."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("signature ranks are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _shared_ranks, (dict(self),)


# item tuple -> its one _Ranks
_RANKS: Dict[Tuple[Tuple[int, int], ...], _Ranks] = {}


def _shared_ranks(ranks) -> _Ranks:
    """The one ``_Ranks`` holding these items, in this order."""
    key = tuple(ranks.items())
    out = _RANKS.get(key)
    if out is None:
        out = _RANKS[key] = _Ranks(key)
    return out


@dataclass(frozen=True)
class HomologySignature:
    """Per-degree ranks of the inclusion-induced image — the local homology
    estimate.

    Signatures are immutable.  ``ranks`` is read-only and shared: every
    signature with the same mapping holds the same ``_Ranks``, so a caller
    that keeps many results keeps one small dict per distinct mapping.  It
    reads, prints, compares and serialises as a plain dict."""

    ranks: Dict[int, int]
    method: str

    def __post_init__(self):
        object.__setattr__(self, "ranks", _shared_ranks(self.ranks))

    def rank(self, ell: int) -> int:
        return self.ranks.get(ell, 0)

    def nonzero(self) -> Dict[int, int]:
        return {k: v for k, v in self.ranks.items() if v}


def relative_betti(Q, ell: int, q: int = 2) -> int:
    """dim ker of the degree-ell restricted boundary minus rank of the
    degree-(ell+1) one, over GF(q), of a ``QuotientPairComplex``-like pair."""
    if Q.max_dim < ell + 1:
        raise ValueError(f"pair built to dimension {Q.max_dim}, need {ell + 1}")
    n_ell = Q.dim_count(ell)
    if n_ell == 0:
        return 0
    r_d = rank(Q.boundary_columns(ell, q), q)
    r_up = rank(Q.boundary_columns(ell + 1, q), q)
    return n_ell - r_d - r_up


def _stacked_rank(b2_cols: list, images, boundary1, n2: int, q: int) -> int:
    """The image rank in one degree, from one reduction of [B2 | S].

    ``b2_cols`` spans the level-2 relative boundaries over the n2 level-2
    basis simplices.  Per level-1 basis simplex, ``images`` holds its
    level-2 image over those rows and ``boundary1`` its level-1 relative
    boundary, which goes to rows n2 and up.  The S lows below n2 count the
    rank (see the module docstring).  No input is mutated.
    """
    shift = n2 * lane_width(q)
    cols = b2_cols + [x | b << shift for x, b in zip(images, boundary1)]
    lows, _ = reduce_columns(cols, q)
    return sum(1 for low in lows[len(b2_cols):] if 0 <= low < n2)


def _image_ranks(level1, make_level2, lmax: int, q: int) -> list:
    """The image rank in each degree 0..lmax of the map from the pair
    ``level1`` into the pair that ``make_level2()`` returns, by
    ``_stacked_rank``: the one per-degree loop of both direct methods.

    Both pairs have the interface of ``QuotientPairComplex``, and level 2
    holds its degree-(lmax+1) simplices, or a set whose boundaries span
    theirs.  Level 2 is made on the first degree with a level-1 basis
    simplex, so a query whose level-1 basis is empty makes none.
    """
    ranks = [0] * (lmax + 1)
    level2 = None
    for ell in range(lmax + 1):
        simplices = level1.basis.get(ell)
        if not simplices:
            continue
        if level2 is None:
            level2 = make_level2()
        n2 = level2.dim_count(ell)
        if n2:
            ranks[ell] = _stacked_rank(level2.boundary_columns(ell + 1, q),
                                       level2.images(ell, simplices, q),
                                       level1.boundary_columns(ell, q), n2, q)
    return ranks


def _sample_and_centre(spec: QuerySpec, points):
    """The sample as a float array and its point ``spec.p``, the centre of
    the query; raises ``ValueError`` if a coordinate is not finite or p is
    not an index in range(n)."""
    points = _finite_points(points)
    if not 0 <= spec.p < len(points):
        raise ValueError(f"centre index {spec.p} outside range({len(points)})")
    return points, points[spec.p]


def image_rank(spec: QuerySpec, points: np.ndarray) -> HomologySignature:
    """Rank of H(level-1 pair) -> H(level-2 pair) per degree (direct method),
    by ``_image_ranks``.

    The level-1 pair is ``quotient_pair``'s, and the level-2 pair is that
    pair's basis (``_pair_basis``) to degree lmax + 1.  Its degree-(lmax+1)
    simplices are only ever columns of B2, and the rank reads only their
    span; for Rips they are the spanning set of ``_clique_expand``, the
    simplices with no common neighbour below their least vertex, whose
    boundaries span the relative boundaries by ∂∂ = 0 on the cofaces of a
    flag complex.  A Cech complex is not a flag complex and keeps them all.
    """
    points, center = _sample_and_centre(spec, points)
    (a1, b1), (a2, b2) = spec.level1, spec.level2
    top = spec.lmax + 1
    Q1 = quotient_pair(points, center, a1, b1, spec.flavor, spec.lmax)
    ranks = _image_ranks(
        Q1, lambda: QuotientPairComplex(
            top, _pair_basis(points, center, a2, b2, spec.flavor, top, spanning=True)),
        spec.lmax, spec.q)
    return HomologySignature(dict(enumerate(ranks)), method="direct")


def image_rank_oracle(spec: QuerySpec, points: np.ndarray) -> HomologySignature:
    """Independent coned-persistence computation of the same image ranks."""
    points, center = _sample_and_centre(spec, points)
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
    full = len(points) - 1
    Q = quotient_pair(points, center, a, b, flavor, full + 1)
    X = build_complex(points, None, a, full, flavor)
    A = _induced(X, delete_ball(points, center, b))
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

    A query answers through ``_image_ranks``, as ``image_rank`` does.  Both
    levels are a ``_CollapsedPair``, for Rips and Cech alike and at every
    lmax: built on the centre's local graph at the level's scale and ball,
    less the cofaces of the level's bad simplices for Cech
    (``_bad_simplices``), and strong-collapsed.  The level-1 basis is the
    level-1 core's simplices that meet the larger ball, up to degree lmax,
    and a level-1 simplex maps by the vertex map of the level-2 collapse.
    Both are in local ids, one order per centre (``_Centre``), so the
    level-1 basis passes to level 2 as it is.  Its core pair includes into
    the level-1 pair as a homotopy equivalence of pairs, so the image rank
    is the same.  No global complex is read.

    The engine keeps what it learnt about the centre of its latest query
    (``_Centre``): the squared distances, one neighbourhood with a local
    Rips graph per scale, which a query with a smaller ball slices
    (``_graph``), and the level-2 pair of the latest b2.  One distance block
    gives both scales' graphs (``_neighbourhood``).  A query at a new
    centre replaces it.  So a scan of ball radii around one centre builds
    a few neighbourhoods and one level-2 pair per b2.  Level-1 pairs are
    built per query.

    Set-up checks its input through the gate of ``complexes``
    (``_check_levels``, ``_finite_points``) and builds the global level-1
    complex (scale a1, to lmax), which no query reads.  Results are
    identical to sequential per-point evaluation with ``image_rank``.
    """

    def __init__(self, points: np.ndarray, level1, level2,
                 flavor: str = "rips", q: int = 2, lmax: int = 1):
        _check_levels(level1, level2, flavor, lmax)
        _require_prime(q)
        self.points = _finite_points(points)
        self.a1, self.b1 = level1
        self.a2, self.b2 = level2
        self.flavor = flavor
        self.q = q
        self.lmax = lmax
        # no query reads it: the benchmark's set-up metrics time this build
        build_complex(self.points, None, self.a1, lmax, flavor)
        self._at: Optional[_Centre] = None
        # rank tuple -> its one signature
        self._results: Dict[Tuple[int, ...], HomologySignature] = {}

    @property
    def kernel(self) -> str:
        """The pairs of every query, for reports."""
        return "local vertex collapse"

    def query(self, center, keep_detail: bool = False,
              b1: Optional[float] = None,
              b2: Optional[float] = None) -> HomologySignature:
        """One image-rank query; ``b1``/``b2`` override the default deleted-ball
        radii (the complex scales stay fixed per engine).  Radii that
        ``QuerySpec`` would reject, NaN, negative or not nested, raise its
        ``ValueError``, and so does a centre that is not one point of the
        sample's dimension with finite coordinates.

        Queries at the centre of the latest one reuse its distances, its
        local graphs and, at the same ``b2``, its level-2 pair: so a run of
        queries that varies only ``b1``, such as one column of an explorer
        scan, builds one level-2 pair, and a whole scan builds two
        neighbourhoods.  Equal ranks return the same ``HomologySignature``,
        whose method is "direct".

        A query returns ranks only.  ``keep_detail`` stays as a keyword, as
        the benchmark's engine wrapper passes it by name, and must be False.
        """
        if keep_detail:
            raise ValueError("queries keep no detail: keep_detail must be False")
        if b1 is None:
            b1 = self.b1
        if b2 is None:
            b2 = self.b2
        _check_levels((self.a1, b1), (self.a2, b2), self.flavor, self.lmax)
        at = self._centre(center)
        # an empty smaller ball leaves the level-2 basis empty in every degree
        if not (at.sq < b2 * b2).any():
            return self._result([0] * (self.lmax + 1))
        self._cover(at, b1, b2)
        level1 = self._collapsed(at, self.a1, b1, self.lmax)
        return self._result(_image_ranks(level1, lambda: self._pair(at, b2),
                                         self.lmax, self.q))

    def _result(self, ranks: list) -> HomologySignature:
        """The one signature this engine returns for these ranks."""
        key = tuple(ranks)
        out = self._results.get(key)
        if out is None:
            out = self._results[key] = HomologySignature(dict(enumerate(key)), "direct")
        return out

    def _centre(self, center) -> _Centre:
        """The kept state of ``center``, made anew unless it is the latest
        query's centre.  A new centre, or one of another shape with the
        kept one's bytes, goes through ``_finite_centre``."""
        center = np.asarray(center, dtype=float)
        key = center.tobytes()
        if self._at is None or self._at.key != key or center.shape != self.points.shape[1:]:
            center = _finite_centre(self.points, center)
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
            return _CollapsedPair(graph, top, spanning)
        bad = _bad_simplices(self.points, at.local[:len(graph[1])], a)
        return _CollapsedPair(graph, top, bad=bad)

    def _pair(self, at: _Centre, b2: float) -> "_CollapsedPair":
        """The level-2 pair at the centre ``at`` with smaller ball radius
        ``b2``.  It depends on nothing else, and it is read-only once built,
        so a query at the same centre and ``b2`` as the latest pair's reuses
        it."""
        if at.level2[0] != b2:
            at.level2 = (b2, self._collapsed(at, self.a2, b2, self.lmax + 1, True))
        return at.level2[1]

    def query_index(self, i: int, keep_detail: bool = False) -> HomologySignature:
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
    ball's are 0..nb-1.  One ``_adjacency_bits`` pass over those ids gives
    every scale's edges, each thresholded on its own prefix.  Returns the
    global ids in that order, their sq, and per scale the
    closed-neighbourhood bitmasks.
    """
    reach = [(b + 2 * a) ** 2 * (1 + 1e-12) for a, b in balls.items()]
    local = np.flatnonzero(sq <= max(reach))
    local = local[np.argsort(sq[local], kind="stable")]
    sqs = sq[local]
    sizes = np.searchsorted(sqs, reach, "right").tolist()
    return local, sqs, dict(zip(balls, _adjacency_bits(points, local, list(balls), sizes)))


class _CollapsedPair:
    """The Rips or Cech pair (X, A) at scale a with the open b-ball
    deleted, for either level of a query and every lmax, in local ids, one
    order per centre, with the pair interface of ``QuotientPairComplex``.

    The pair is built on the centre's local graph at (a, b), ``graph`` =
    (nb, closed-neighbourhood bitmasks of local vertices 0..m-1).  X is the
    clique complex of the graph less the cofaces of the vertex sets in
    ``bad``: none for Rips, the local bad simplices for Cech.  It is shrunk
    by ``collapse_vertices``: far vertices are tried first, each onto its
    nearest dominating neighbour.  Its ``basis`` in degree d <= ``top`` is
    the d-simplices of the live core that meet the ball, as tuples of local
    ids; with ``spanning``, degree ``top`` holds the spanning set of
    ``_clique_expand`` instead, whose boundaries span the relative
    boundaries of degree top - 1.  That needs a flag complex, so a Cech
    pair keeps every top simplex.  Rows index the degrees below ``top``.
    Only the live core is expanded into cliques.

    As a level-2 pair it maps a level-1 basis simplex (``images``), in the
    same local ids, by f, the composed vertex map of the collapse: to the
    sorted f-image of its vertices, with the sign of the sorting
    permutation.  The image is 0 when the simplex has a vertex at or past
    m, off the local set, is degenerate under f, or its image has no row.
    f is a simplicial map of pairs, homotopy inverse to the inclusion of
    the core, so the image rank is that of the uncollapsed pair.  A
    level-1 pair never maps a simplex, so f is built on the first
    ``images`` call.
    """

    def __init__(self, graph, top: int, spanning: bool = False, bad=()):
        nb, adj = graph
        self.m = len(adj)
        self.max_dim = top
        live, self._onto = collapse_vertices(adj, (1 << nb) - 1, bad)
        core = {i: adj[i] & live ^ 1 << i for i in _bits(live)}
        self.basis = _clique_expand(range(self.m), core, top, (1 << nb) - 1, spanning)
        # a Cech core drops the cliques that hold a bad simplex of the core
        if held := bad and [t for t in bad if not t & ~live]:
            for d, ss in self.basis.items():
                if d >= 2:
                    masks = (sum(1 << v for v in s) for s in ss)
                    self.basis[d] = [s for s, x in zip(ss, masks)
                                     if all(t & ~x for t in held)]
        self.rows = {d: {s: r for r, s in enumerate(ss)}
                     for d, ss in self.basis.items() if d < top}
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

    def dim_count(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_columns(self, d: int, q: int) -> list:
        """Packed GF(q) boundary columns of the degree-d basis over the
        degree-(d-1) rows, kept per (d, q) and shared: callers only read
        them."""
        key = d, q
        cols = self._bnd.get(key)
        if cols is None:
            cols = self._bnd[key] = boundary(self.basis.get(d, []),
                                             self.rows.get(d - 1, {}), q)
        return cols

    def images(self, d: int, simplices, q: int) -> list:
        """The image of each level-1 basis simplex of ``simplices``, in
        local ids, as a column over the degree-d rows."""
        rows, k = self.rows.get(d, {}), lane_width(q)
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
            odd = q > 2 and d and sum(f[x] > f[y] for x, y in combinations(s, 2)) & 1
            out.append((q - 1 if odd else 1) << r * k)
        return out
