import math
from itertools import combinations

import numpy as np
import pytest

from localhom.complexes import (_adjacency_bits, _bad_simplices, _build, _clique_expand,
                                _det, _induced, _leibniz, _pair_basis, _support_sets,
                                _too_wide, boundary, build_complex, cech, cone_pair,
                                delete_ball, quotient_pair, rips)
from localhom.fieldla import _bits, entries, rank
from localhom.geometry import sq_dists
from reference import boundary_by_slices, coned_order, det_leibniz, min_enclosing_radius


def _simplex_set(cx):
    return {s for d, ss in cx.simplices.items() for s in ss}


def test_rips_boundary_case_three_points():
    pts = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    cx = rips(pts, None, 0.5, 2)
    assert cx.count(1) == 3 and cx.count(2) == 1        # d == 2*alpha included
    cx = rips(pts, None, 0.49, 2)
    assert cx.count(1) == 0 and cx.count(2) == 0


def test_rips_unit_square():
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float)
    cx = rips(pts, None, 0.5, 2)
    assert cx.count(1) == 4 and cx.count(2) == 0        # diagonals sqrt(2) > 1


def _adjacency_bits_by_row_loop(points, subset, alpha):
    """Reference: each row's closed-neighbourhood mask set bit by bit from
    its nonzero entries, its own bit included."""
    pts = points[subset]
    close = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) <= (2 * alpha) ** 2
    adj = []
    for i in range(len(subset)):
        row = 0
        for j in np.flatnonzero(close[i]):
            row |= 1 << int(j)
        assert row >> i & 1
        adj.append(row)
    return adj


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 63, 64, 65, 128, 129, 200])
def test_adjacency_bits_match_row_loop(m):
    # a local subset of a larger 1/64-grid sample, as the engine passes it;
    # the counts straddle byte, 64-bit word and two-word (128-bit) boundaries
    rng = np.random.default_rng(m)
    alpha = 5 / 64
    pts = np.round(rng.uniform(0, 1, (m + 10, 2)) * 64) / 64
    subset = np.sort(rng.choice(m + 10, m, replace=False))
    if m >= 2:
        # its first and last vertex exactly 2*alpha apart: an edge
        pts[subset[-1]] = pts[subset[0]] + (0.0, 2 * alpha)
    adj = _adjacency_bits(pts, subset, alpha)
    assert adj == _adjacency_bits_by_row_loop(pts, subset, alpha)
    if m >= 2:
        assert adj[0] >> (m - 1) & 1 and adj[m - 1] & 1
    if m >= 64:
        # bits past one word, besides a vertex's own
        assert any((row ^ 1 << i) >> 63 for i, row in enumerate(adj))


def test_rips_empty_subset():
    cx = rips(np.zeros((3, 2)), [], 1.0, 2)
    assert cx.count(0) == 0


def test_min_enclosing_radius_triangle():
    pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    assert min_enclosing_radius(pts) == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_cech_circumradius_threshold():
    pts = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert cech(pts, None, 0.58, 2).count(2) == 1
    cx = cech(pts, None, 0.55, 2)
    assert cx.count(2) == 0 and cx.count(1) == 3


def _enclosing_r2_reference(P):
    """Squared radius of the smallest ball enclosing P, from first
    principles: the least circumball, over every subset of at most D + 1
    points, that encloses all of P.  Circumcentres are found by least
    squares in each subset's affine hull."""
    best = 0.0 if len(P) < 2 else math.inf
    for k in range(2, min(len(P), P.shape[1] + 1) + 1):
        for T in combinations(range(len(P)), k):
            B = P[list(T[1:])] - P[T[0]]
            w = np.linalg.lstsq(2 * B @ B.T, (B * B).sum(1), rcond=None)[0]
            d2 = ((P - P[T[0]] - B.T @ w) ** 2).sum(1)
            r2 = d2[list(T)].max()
            if d2.max() <= r2 * (1 + 1e-10):
                best = min(best, r2)
    return best


def _assert_cech_matches_reference(P, alpha, max_dim):
    """Assert cech() and min_enclosing_radius against the reference on every
    Rips candidate; returns the candidates and the Cech simplices."""
    thr2 = alpha * alpha * (1 + 1e-12) + 1e-24
    candidates = _simplex_set(rips(P, None, alpha, max_dim))
    got = _simplex_set(cech(P, None, alpha, max_dim))
    assert got <= candidates
    for s in candidates:
        ref = _enclosing_r2_reference(P[list(s)])
        assert (s in got) == (ref <= thr2), (s, ref, alpha * alpha)
        assert math.isclose(min_enclosing_radius(P[list(s)]), math.sqrt(ref),
                            rel_tol=1e-10, abs_tol=1e-15), s
    return candidates, got


@pytest.mark.parametrize("D", [2, 3, 4])
def test_cech_matches_enclosing_ball_reference_on_random_points(D):
    rng = np.random.default_rng(40 + D)
    rejected = top = 0
    for _ in range(3):
        P = rng.uniform(0, 1, (8, D))
        for alpha in (0.3, 0.45):
            candidates, got = _assert_cech_matches_reference(P, alpha * math.sqrt(D / 2), 4)
            rejected += len(candidates - got)
            top += sum(len(s) == 5 for s in got)
    assert rejected and top
    # a regular D-simplex of edge sqrt(2), at a scale between the
    # circumradius of its facets and its own: every facet, but not itself
    V = np.eye(D + 1) - 1 / (D + 1)
    P = V @ np.linalg.svd(V)[2][:D].T
    alpha = (math.sqrt((D - 1) / D) + math.sqrt(D / (D + 1))) / 2
    candidates, got = _assert_cech_matches_reference(P, alpha, D)
    assert candidates - got == {tuple(range(D + 1))}


@pytest.mark.parametrize("D", [2, 3])
def test_cech_matches_enclosing_ball_reference_on_grid_ties(D):
    # 1/64-grid points on and at the centre of a circle of radius 5m: a
    # collinear triple through the centre, right triangles on a diameter,
    # acute cocircular triangles and duplicates, all of enclosing radius
    # exactly 5m; alpha is 5m or half an exactly representable pair distance
    G = 1 / 64
    rng = np.random.default_rng(50 + D)
    plane = np.array([(3, 4), (-3, 4), (4, -3), (-5, 0), (5, 0), (0, 0),
                      (3, 4), (0, 0)])
    for m in (1, 2):
        P = np.zeros((len(plane) + D - 1, D))
        P[:len(plane), :2] = plane * m
        P[len(plane):] = rng.integers(-4, 5, (D - 1, D)) * m      # off the plane
        P = P * G + rng.integers(0, 8, D) * G
        d2 = ((P[:, None] - P[None]) ** 2).sum(-1)
        ties = sorted(math.sqrt(v) / 2 for v in set(d2[d2 > 0].tolist())
                      if (math.sqrt(v) / 2) ** 2 * 4 == v)
        for alpha in ties[:4] + [5 * m * G]:
            _assert_cech_matches_reference(P, alpha, 4)
        tie = _simplex_set(cech(P, None, 5 * m * G, 2))
        assert {(0, 1, 2), (0, 1, 3), (3, 4, 5), (0, 3, 4)} <= tie
        assert min_enclosing_radius(P[:6]) == 5 * m * G


def _check_bad_simplices(P, alpha, ids):
    """``_bad_simplices`` on the points ``ids``, in that local order, are
    the Rips cliques of 3 to D + 1 vertices that ``_too_wide`` rejects, each
    found once, and a clique is a Cech simplex iff it holds none of them;
    returns how many there are."""
    bad = [frozenset(ids[i] for i in _bits(t)) for t in _bad_simplices(P, ids, alpha)]
    assert len(set(bad)) == len(bad)
    cliques = _simplex_set(rips(P, ids, alpha, len(ids) - 1))
    want = {frozenset(s) for s in cliques
            if 3 <= len(s) <= P.shape[1] + 1 and _too_wide(P[np.array([s])], alpha)[0]}
    assert set(bad) == want
    assert _simplex_set(cech(P, ids, alpha, len(ids) - 1)) == \
        {s for s in cliques if not any(t <= set(s) for t in bad)}
    return len(bad)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_bad_simplices_are_the_sets_cech_rejects(D):
    # random points, and a regular D-simplex of edge sqrt(2) at a scale just
    # over its circumradius, at it and just under the circumradius of its
    # facets (where it is measured), with its points in a shuffled local
    # order; in the plane and in R^3, the grid ties above too
    rng = np.random.default_rng(70 + D)
    found = 0
    for _ in range(4):
        P = rng.uniform(0, 1, (8, D))
        for alpha in (0.3, 0.45):
            found += _check_bad_simplices(P, alpha * math.sqrt(D / 2), rng.permutation(8))
    V = np.eye(D + 1) - 1 / (D + 1)
    P = V @ np.linalg.svd(V)[2][:D].T
    r, rf = math.sqrt(D / (D + 1)), math.sqrt((D - 1) / D)
    for alpha in (r * (1 + 1e-9), r, (r + rf) / 2, rf * (1 - 1e-9)):
        found += _check_bad_simplices(P, alpha, rng.permutation(D + 1))
    if D < 4:
        G = 1 / 64
        P = np.zeros((8 + D - 1, D))
        P[:8, :2] = [(3, 4), (-3, 4), (4, -3), (-5, 0), (5, 0), (0, 0), (3, 4), (0, 0)]
        P[8:] = rng.integers(-4, 5, (D - 1, D))
        P *= G
        d2 = ((P[:, None] - P[None]) ** 2).sum(-1)
        for v in sorted(set(d2[d2 > 0].tolist()))[:8] + [(5 * G) ** 2]:
            found += _check_bad_simplices(P, math.sqrt(v) / 2, rng.permutation(len(P)))
    assert found


@pytest.mark.parametrize("D", [2, 3, 4])
def test_support_sets_of_a_row_do_not_depend_on_its_stack(D):
    # cech and the engine measure a set in stacks of different sizes; a
    # matrix product over the 24 terms of a 4 x 4 determinant gave other
    # bits in stacks of other sizes
    P = np.random.default_rng(80 + D).uniform(-1, 1, (600, D + 1, D))
    r2, support = _support_sets(P)
    for lo in range(0, 600, 37):
        for n in (1, 2, 3, 5, 8, 13, 64):
            got, inside = _support_sets(P[lo:lo + n])
            assert np.array_equal(got, r2[lo:lo + n])
            assert np.array_equal(inside, support[lo:lo + n])


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_leibniz_loop_bit_for_bit(n):
    # random matrices, and the stacks that _support_sets builds from random
    # and 1/16-grid points, duplicates among them, in stacks of 1 to 600
    rng = np.random.default_rng(90 + n)
    for m in (1, 2, 5, 37, 128, 600):
        M = rng.uniform(-1, 1, (m, n, n))
        assert _same_bits(_det(M), det_leibniz(M))
        for P in (rng.uniform(-1, 1, (m, n + 1, n)),
                  np.round(rng.uniform(-1, 1, (m, n + 1, n)) * 16) / 16):
            P[::3, -1] = P[::3, 0]
            E = P[:, 1:] - P[:, :1]
            G = E @ E.transpose(0, 2, 1)
            h = np.diagonal(G, axis1=1, axis2=2) / 2
            M = np.where(_leibniz(n)[2], h[:, :, None], G).reshape(-1, n, n)
            assert _same_bits(_det(M), det_leibniz(M))


def _grid_sample(rng, m, D):
    """m points of the 1/16 grid in R^D, duplicates included, dense enough
    that most points have neighbours two steps away."""
    side = math.ceil((2 * m) ** (1 / D)) + 1
    pts = rng.integers(0, side, (m, D)) / 16
    pts[1::9] = pts[::9][:len(pts[1::9])]
    return pts


@pytest.mark.parametrize("flavor", ["rips", "cech"])
@pytest.mark.parametrize("D", [2, 3, 4])
def test_several_scale_builds_equal_one_scale_builds(D, flavor):
    # scales of one and two grid steps, so that distances of exactly 2 * a1
    # and 2 * a2 occur; m straddles the 64-bit words and the 256-row blocks
    rng = np.random.default_rng(100 + D)
    a1, a2 = 1 / 32, 1 / 16
    for m in (63, 64, 65, 127, 128, 129, 255, 256, 257):
        pts = _grid_sample(rng, m + 6, D)
        subset = np.sort(rng.choice(m + 6, m, replace=False))
        adj = _adjacency_bits(pts, subset, (a1, a2))
        assert adj == [_adjacency_bits(pts, subset, a1), _adjacency_bits(pts, subset, a2)]
        assert _adjacency_bits(pts, subset, [a2]) == [adj[1]]
        max_dim = 2 if D < 4 or m < 200 else 1
        both = _build(pts, subset, (a1, a2), max_dim, flavor)
        for cx, a in zip(both, (a1, a2)):
            one = build_complex(pts, subset, a, max_dim, flavor)
            assert (cx.scale, cx.flavor, cx.max_dim) == (a, flavor, max_dim)
            assert np.array_equal(cx.vertex_ids, one.vertex_ids)
            assert cx.simplices == one.simplices
        assert both[0].count(1) < both[1].count(1)
    # random points at three scales, where Cech drops simplices at each
    dropped = 0
    for _ in range(6):
        pts = rng.uniform(0, 1, (40, D))
        alphas = (0.14, 0.17, 0.2)
        each = _build(pts, None, alphas, D, flavor)
        for cx, a in zip(each, alphas):
            assert cx.simplices == build_complex(pts, None, a, D, flavor).simplices
            dropped += sum(map(len, rips(pts, None, a, D).simplices.values())) - \
                sum(map(len, cx.simplices.values()))
    assert dropped > 0 if flavor == "cech" else dropped == 0


def test_several_scale_build_wants_ascending_scales():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="ascending"):
        _build(pts, None, (0.2, 0.1), 1, "rips")
    with pytest.raises(ValueError, match="ascending"):
        _build(pts, None, (float("nan"), 0.1), 1, "cech")


def test_build_wants_nonnegative_scales():
    # the edge test squares 2a: a negative scale once joined every pair and
    # a NaN one none; a = 0 stays valid and joins coincident points only
    pts = np.array([(0.0, 0.0), (0.0, 0.0), (3.0, 4.0)])
    for a in (-1.0, float("nan")):
        for build in (rips, cech, lambda *args: build_complex(*args, "cech"), build_complex):
            with pytest.raises(ValueError, match="scales must be >= 0"):
                build(pts, None, a, 1)
    with pytest.raises(ValueError, match="scales must be >= 0"):
        _build(pts, None, (-0.5, 0.5), 1, "rips")
    for flavor in ("rips", "cech"):
        assert build_complex(pts, None, 0.0, 1, flavor).simplices[1] == [(0, 1)]


@pytest.mark.parametrize("sizes", [(300, 600), (257, 513), (200, 600)])
@pytest.mark.parametrize("alphas", [(1 / 32, 1 / 16), (1 / 16, 1 / 32)])
def test_adjacency_bits_on_prefixes(alphas, sizes):
    # scale k thresholded on the first sizes[k] vertices, as the engine's
    # neighbourhood asks, equals a one-scale build on that prefix; the
    # smaller prefix ends inside a 256-row block while the other scale's
    # rows go on, or a whole block before a full one, and grid points lie
    # exactly 2a apart at both scales
    rng = np.random.default_rng(sizes[0])
    pts = rng.integers(0, 40, (700, 2)) / 16
    subset = rng.permutation(700)[:600]
    for a, m in zip(alphas, sizes):
        sq = sq_dists(pts[subset[:m]], pts[subset[:m]])
        assert (sq == (2 * a) ** 2).any()
    adj = _adjacency_bits(pts, subset, alphas, sizes)
    assert adj == [_adjacency_bits(pts, subset[:m], a) for a, m in zip(alphas, sizes)]
    assert [len(rows) for rows in adj] == list(sizes)


def test_min_enclosing_radius_of_no_point_or_one():
    assert min_enclosing_radius(np.zeros((0, 2))) == 0.0
    assert min_enclosing_radius([]) == 0.0
    assert min_enclosing_radius([(0.25, -1.5)]) == 0.0


def test_cech_one_skeleton_equals_rips():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(12, 2))
    for alpha in (0.2, 0.4, 0.7):
        assert cech(pts, None, alpha, 1).simplices.get(1, []) == \
            rips(pts, None, alpha, 1).simplices.get(1, [])


def test_delete_ball_rules():
    pts = np.array([(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, 20, endpoint=False)])
    assert len(delete_ball(pts, (1, 0), 0.0)) == 20
    assert len(delete_ball(pts, (1, 0), 3.0)) == 0
    pts2 = np.array([(0, 0), (1, 0)], float)
    kept = delete_ball(pts2, (0, 0), 1.0)
    assert list(kept) == [1]                            # boundary point survives


def test_quotient_pair_zero_radius():
    pts = np.random.default_rng(0).uniform(-1, 1, (8, 2))
    Q = quotient_pair(pts, pts[0], 0.5, 0.0, "rips", 2)
    assert all(Q.dim_count(d) == 0 for d in range(3))


def test_quotient_pair_three_collinear():
    pts = np.array([(0, 0), (1, 0), (2, 0)], float)
    Q = quotient_pair(pts, (0, 0), 0.6, 0.5, "rips", 1)
    assert Q.basis[0] == [(0,)]
    assert Q.basis[1] == [(0, 1)]
    # face v1 dropped, v0 kept with coefficient -1: 1 in GF(2), 2 in GF(3)
    assert Q.dim_count(0) == 1
    assert Q.boundary_columns(1, 2) == [1] and Q.boundary_columns(1, 3) == [2]


# the triangle (0, 1, 2) has facets (1, 2), (0, 2), (0, 1) with signs +, -, +;
# packed columns below are written lane by lane, highest row first, with
# lanes of 1, 3 and 4 bits at q = 2, 3 and 5
@pytest.mark.parametrize("q,all_edges,two_edges,unordered,edge", [
    (2, 0b1_1_1, 0b1_1, 0b1_1_1, 0b1_1),
    (3, 0b001_010_001, 0b001_010, 0b010_001_001, 0b010_001),
    (5, 0b0001_0100_0001, 0b0001_0100, 0b0100_0001_0001, 0b0100_0001),
], ids=["2", "3", "5"])
def test_boundary_by_hand(q, all_edges, two_edges, unordered, edge):
    tri = [(0, 1, 2)]
    assert boundary(tri, {(0, 1): 0, (0, 2): 1, (1, 2): 2}, q) == [all_edges]
    # (0, 1) has no row, so it is dropped
    assert boundary(tri, {(0, 2): 0, (1, 2): 1}, q) == [two_edges]
    assert boundary([(0,), (3,)], {(0,): 0, (3,): 1}, q) == [0, 0]
    # rows follow the dict, not the lexicographic order of the faces
    assert boundary(tri, {(1, 2): 0, (0, 1): 1, (0, 2): 2}, q) == [unordered]
    assert boundary([(0, 1)], {(1,): 0, (0,): 1}, q) == [edge]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_boundary_matches_slice_rule(q):
    # vertices, edges, triangles and tetrahedra on 6 vertices, over rows
    # that hold a random part of their faces, the empty face among them,
    # in random order
    rng = np.random.default_rng(q)
    faces = [s for k in range(5) for s in combinations(range(6), k)]
    simplices = [s for s in faces if s]
    for _ in range(40):
        keep = [f for f in faces if len(f) < 4 and rng.random() < 0.6]
        rows = {f: int(r) for f, r in zip(keep, rng.permutation(len(keep)))}
        order = [simplices[i] for i in rng.permutation(len(simplices))]
        assert boundary(order, rows, q) == boundary_by_slices(order, rows, q)


def test_quotient_pair_triangle_boundary():
    # triangle boundary (max_dim=1 keeps it hollow), delete the two vertices
    # of the bottom edge via a ball around its midpoint
    pts = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    Q = quotient_pair(pts, (0.5, -0.1), 0.5, 0.6, "rips", 1)
    assert Q.dim_count(0) == 2 and Q.dim_count(1) == 3


def test_quotient_localization_soundness():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.uniform(-1, 1, size=(rng.integers(5, 12), 2))
        p = pts[int(rng.integers(len(pts)))]
        a = float(rng.uniform(0.15, 0.5))
        b = float(rng.uniform(0.05, 1.0))
        Q = quotient_pair(pts, p, a, b, "rips", 2)
        # unlocalized reference: basis from the full complex
        full = rips(pts, None, a, 2)
        near = ((pts - p) ** 2).sum(-1) < b * b
        for d in range(3):
            ref = [s for s in full.simplices.get(d, []) if any(near[v] for v in s)]
            assert Q.basis.get(d, []) == ref


def _tied_points(rng, n):
    """n points on a 1/8 grid, so that many distances tie with 2*alpha, and
    a duplicate."""
    pts = rng.integers(0, 6, size=(n, 2)) / 8
    pts[-1] = pts[int(rng.integers(0, n - 1))]
    return pts


@pytest.mark.parametrize("max_dim", [0, 1, 2, 3, 4])
def test_clique_expand_restricted_to_mask(max_dim):
    # list for list, the full complex filtered by the mask: no mask, mask 0,
    # every vertex and random masks, over an unsorted local numbering; and
    # the expansion of a vertex subset, as of a collapse's live core, is
    # the full one restricted to the simplices on that subset
    rng = np.random.default_rng(max_dim)
    for t in range(40):
        n = int(rng.integers(1, 14))
        pts = _tied_points(rng, n) if n > 1 else np.zeros((1, 2))
        subset = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
        adj = {i: a ^ 1 << i for i, a in
               enumerate(_adjacency_bits(pts, subset, float(rng.choice([1, 1.5, 2])) / 16))}
        full = _clique_expand(subset, adj, max_dim)
        assert full == _clique_expand(subset, adj, max_dim, -1)
        m = len(subset)
        for mask in (0, (1 << m) - 1, int(rng.integers(0, 1 << m)), int(rng.integers(0, 1 << m))):
            near = {subset[i] for i in range(m) if mask >> i & 1}
            want = {d: [s for s in ss if near.intersection(s)] for d, ss in full.items()}
            got = _clique_expand(subset, adj, max_dim, mask)
            assert {d: ss for d, ss in got.items() if ss} == \
                {d: ss for d, ss in want.items() if ss}
            assert set(got) <= set(full)
        for keep in (0, (1 << m) - 1, int(rng.integers(0, 1 << m))):
            on = {subset[i] for i in range(m) if keep >> i & 1}
            sub = {i: a & keep for i, a in adj.items() if keep >> i & 1}
            mask = int(rng.integers(0, 1 << m)) if t % 2 else -1
            want = _clique_expand(subset, adj, max_dim, mask)
            want = {d: [s for s in ss if on.issuperset(s)] for d, ss in want.items()}
            got = _clique_expand(subset, sub, max_dim, mask)
            assert {d: ss for d, ss in got.items() if ss} == \
                {d: ss for d, ss in want.items() if ss}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_spanning_top_degree_boundaries(q):
    # the spanning set of the top degree is a sublist of the full one whose
    # boundaries have the same rank; the lower degrees are untouched
    rng = np.random.default_rng(30 + q)
    pruned = 0
    for t in range(60):
        pts = _tied_points(rng, int(rng.integers(5, 16)))
        c = pts[int(rng.integers(0, len(pts)))]
        a = float(rng.choice([1, 1.5, 2, 3])) / 16
        b = float(rng.choice([1, 2, 3, 4, 6])) / 16
        top = int(rng.integers(1, 4))
        full = quotient_pair(pts, c, a, b, "rips", top)
        span = _pair_basis(pts, c, a, b, "rips", top, spanning=True)
        assert {d: ss for d, ss in span.items() if d < top} == \
            {d: ss for d, ss in full.basis.items() if d < top}
        got, want = span.get(top, []), full.basis.get(top, [])
        assert set(got) <= set(want) and got == sorted(got)
        rows = full._index.get(top - 1, {})
        assert rank(boundary(got, rows, q), q) == rank(boundary(want, rows, q), q)
        pruned += len(want) - len(got)
        # a Cech pair is no flag complex, so spanning leaves it whole
        assert _pair_basis(pts, c, a, b, "cech", top, spanning=True) == \
            quotient_pair(pts, c, a, b, "cech", top).basis
    assert pruned > 0


def test_induced_subcomplex_equals_subset_build():
    rng = np.random.default_rng(9)
    for t in range(30):
        pts = _tied_points(rng, int(rng.integers(3, 14)))
        keep = delete_ball(pts, pts[0], float(rng.choice([0, 1, 2, 3, 9])) / 16)
        for build in (rips, cech):
            cx = build(pts, None, float(rng.choice([1, 1.5, 2, 3])) / 16, 3)
            sub = _induced(cx, keep)
            ref = build(pts, keep, cx.scale, 3)
            assert sub.simplices == ref.simplices
            assert sub.vertex_ids.tolist() == ref.vertex_ids.tolist()


def _composed(cols, cols_lower, q):
    """Nonzero coefficients of each column of cols_lower times cols."""
    out = []
    for col in cols:
        acc = {}
        for r, c in entries(col, q):
            for r2, c2 in entries(cols_lower[r], q):
                acc[r2] = (acc.get(r2, 0) + c * c2) % q
        out.append({r: c for r, c in acc.items() if c})
    return out


def test_boundary_squares_to_zero():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(10, 2))
    Q = quotient_pair(pts, pts[0], 0.7, 0.6, "rips", 3)
    cp = cone_pair(pts, pts[0], (0.6, 0.7), (0.7, 0.6), "rips", 3)
    for q in (2, 3):
        for d in range(2, 4):
            cols = Q.boundary_columns(d, q)
            assert any(cols)
            assert not any(_composed(cols, Q.boundary_columns(d - 1, q), q))
        # the coned pair's rows and columns are both its simplices
        cols = cp.boundary_columns(q)
        assert any(cols)
        assert not any(_composed(cols, cols, q))


def test_sandwich_interleaving():
    rng = np.random.default_rng(6)
    s = math.sqrt(2)
    for _ in range(50):
        pts = rng.uniform(-1, 1, size=(rng.integers(4, 16), 2))
        alpha = float(rng.uniform(0.1, 0.8))
        C = _simplex_set(cech(pts, None, alpha, 3))
        R = _simplex_set(rips(pts, None, alpha, 3))
        C2 = _simplex_set(cech(pts, None, s * alpha, 3))
        assert C <= R <= C2


def test_monotonicity():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(12, 2))
    for build in (rips, cech):
        small = _simplex_set(build(pts, None, 0.3, 2))
        big = _simplex_set(build(pts, None, 0.45, 2))
        assert small <= big


def test_face_closure():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(10, 2))
    for build in (rips, cech):
        cx = build(pts, None, 0.5, 3)
        have = _simplex_set(cx)
        for d, ss in cx.simplices.items():
            for s in ss:
                if d == 0:
                    continue
                for k in range(d + 1):
                    assert s[:k] + s[k + 1:] in have


def test_cone_pair_nesting_error():
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    with pytest.raises(ValueError):
        cone_pair(pts, pts[0], (0.5, 0.2), (0.3, 0.1))


def test_cone_pair_empty_A_adds_only_omega():
    pts = np.array([(0, 0), (1, 0)], float)
    cp = cone_pair(pts, (0, 0), (0.6, 10.0), (0.6, 10.0), max_dim=2)
    # everything deleted: A empty at both levels, cone vertex isolated
    assert (cp.omega,) in cp.simplices
    assert all(cp.omega not in s or len(s) == 1 for s in cp.simplices)


@pytest.mark.parametrize("flavor", ["rips", "cech"])
@pytest.mark.parametrize("D", [2, 3])
def test_cone_pair_matches_reference_order(D, flavor):
    # points on a 1/16 grid; every fifth instance has both balls wider than
    # the sample, so A is empty at both levels, and the next has b2 = 0
    rng = np.random.default_rng(20 + D)
    for k in range(30):
        n = int(rng.integers(3, 13))
        pts = np.round(rng.uniform(-1, 1, (n, D)) * 16) / 16
        p = int(rng.integers(0, n))
        a1 = round(float(rng.uniform(0.1, 0.5)) * 32) / 32
        a2 = a1 + round(float(rng.uniform(0.0, 0.3)) * 32) / 32
        b1 = round(float(rng.uniform(0.1, 1.5)) * 32) / 32
        b2 = round(float(rng.uniform(0.0, b1)) * 32) / 32
        if k % 5 == 0:
            b2 = 2 * math.sqrt(D) + 0.5
            b1 = b2 + 0.5
        elif k % 5 == 1:
            b2 = 0.0
        max_dim = int(rng.integers(0, 4))
        cp = cone_pair(pts, pts[p], (a1, b1), (a2, b2), flavor, max_dim)
        assert (cp.simplices, cp.dims, cp.levels) == coned_order(
            pts, pts[p], (a1, b1), (a2, b2), flavor, max_dim)
        if k % 5 == 0:
            assert all(cp.omega not in s or len(s) == 1 for s in cp.simplices)


def test_dump_format():
    pts = np.array([(0, 0), (1, 0)], float)
    cx = rips(pts, None, 0.5, 1)
    assert cx.dump() == "dim 0: 0\ndim 0: 1\ndim 1: 0 1"
