import copy
import dataclasses
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localhom.complexes import (_adjacency_bits, _bad_simplices, build_complex, cech,
                                collapse_vertices, cone_pair, delete_ball, quotient_pair,
                                rips)
from localhom.fieldla import _bits
from localhom.geometry import circle_chord, generate_sample
from localhom.relhom import (HomologySignature, ImageRankEngine, QuerySpec,
                             exactness_check, image_rank, image_rank_oracle,
                             relative_betti)
from reference import local_graph, min_enclosing_radius


def _random_instance(rng, max_pts=10, lmax=1):
    n = int(rng.integers(4, max_pts + 1))
    pts = rng.uniform(-1, 1, size=(n, 2))
    a1 = float(rng.uniform(0.1, 0.5))
    a2 = a1 + float(rng.uniform(0.0, 0.4))
    b1 = float(rng.uniform(0.1, 1.5))
    b2 = float(rng.uniform(0.0, b1))
    q = int(rng.choice([2, 3]))
    flavor = str(rng.choice(["rips", "cech"]))
    p = int(rng.integers(0, n))
    return pts, QuerySpec(p, (a1, b1), (a2, b2), flavor=flavor, q=q, lmax=lmax)


GRID = 1 / 64


def _clustered_instance(rng, junction):
    """27-40 points on a noisy arc, or on three arms meeting at the origin,
    centred at the point nearest the arc's middle or the junction, and
    snapped to a 1/64 grid so that squared distances are exact.  Three
    points are added: one at exactly b2 from the centre, one at exactly
    2*a2 from point 0, and a duplicate."""
    n = int(rng.integers(24, 38))
    if junction:
        arms = rng.uniform(0, 2 * math.pi) + np.array([0, 2, 4]) * math.pi / 3
        t = np.linspace(0, 0.5, n) + rng.uniform(-0.01, 0.01, n)
        pts = np.c_[t * np.cos(arms[np.arange(n) % 3]),
                    t * np.sin(arms[np.arange(n) % 3])]
        mid = np.zeros(2)
    else:
        th = np.linspace(0, 1.2, n) + rng.uniform(-0.01, 0.01, n)
        pts = np.c_[np.cos(th), np.sin(th)]
        mid = np.array([math.cos(0.6), math.sin(0.6)])
    pts = np.round((pts + rng.normal(0, 0.01, pts.shape)) / GRID) * GRID
    p = int(np.argmin(((pts - mid) ** 2).sum(-1)))
    a1 = GRID * int(rng.integers(2, 5))
    a2 = a1 + GRID * int(rng.integers(1, 4))
    m = int(rng.integers(2, 4))
    b2 = GRID * 5 * m
    b1 = b2 + GRID * int(rng.integers(0, 8))
    # a 3-4-5 offset puts a point at distance exactly 5 * m * GRID = b2
    off = np.array([(3, 4), (-4, 3), (-3, -4), (4, -3)][int(rng.integers(0, 4))])
    extra = [pts[p] + off * m * GRID, pts[0] + (0.0, 2 * a2),
             pts[int(rng.integers(0, n))]]
    return np.vstack([pts] + extra), p, (a1, b1), (a2, b2)


@st.composite
def _grid_ties(draw):
    """6-12 points jittered around a ring and up to 3 strays, on a 1/64
    grid, plus the three adversarial points of ``_clustered_instance``: one
    at exactly b2 from the centre, one at exactly 2*a2 from point 0, and a
    duplicate.  b2 = 0 leaves the smaller ball empty."""
    n = draw(st.integers(6, 12))
    rad = draw(st.integers(8, 16))
    th = 2 * math.pi * np.arange(n) / n
    ring = np.round(rad * np.c_[np.cos(th), np.sin(th)])
    cell = st.integers(-rad - 2, rad + 2)
    jitter = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    ring += np.array(draw(st.lists(jitter, min_size=n, max_size=n)))
    strays = draw(st.lists(st.tuples(cell, cell), max_size=3))
    pts = np.vstack([ring] + [np.array(strays, float).reshape(-1, 2)]) * GRID
    p = draw(st.integers(0, len(pts) - 1))
    a1 = GRID * draw(st.integers(2, 7))
    a2 = a1 + GRID * draw(st.integers(0, 4))
    m = draw(st.sampled_from([1, 2, 3, 0]))
    b2 = GRID * 5 * m
    b1 = b2 + GRID * draw(st.integers(0, 12))
    off = np.array(draw(st.sampled_from([(3, 4), (-4, 3), (-3, -4), (4, -3)])))
    extra = [pts[p] + off * m * GRID, pts[0] + (0.0, 2 * a2),
             pts[draw(st.integers(0, len(pts) - 1))]]
    return np.vstack([pts] + extra), p, (a1, b1), (a2, b2)


@st.composite
def _filled_patch(draw):
    """A filled grid patch of 6-7 by 6-7 points, 1/8 apart and each moved
    by at most 1/64 per coordinate, centred half the time at its middle point,
    with scales at which the level-1 complex fills the patch, so that
    degree 2 can be nonzero; plus the three adversarial points of
    ``_grid_ties``."""
    w, h = draw(st.integers(6, 7)), draw(st.integers(6, 7))
    xy = 8 * np.array([(x, y) for y in range(h) for x in range(w)])
    jitter = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    pts = (xy + np.array(draw(st.lists(jitter, min_size=w * h, max_size=w * h)))) * GRID
    p = draw(st.sampled_from([h // 2 * w + w // 2, draw(st.integers(0, w * h - 1))]))
    a1 = GRID * draw(st.integers(6, 7))
    a2 = a1 + GRID * draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 3]))
    b2 = GRID * 5 * m
    b1 = b2 + GRID * draw(st.integers(0, 8))
    off = np.array(draw(st.sampled_from([(3, 4), (-4, 3), (-3, -4), (4, -3)])))
    extra = [pts[p] + off * m * GRID, pts[0] + (0.0, 2 * a2),
             pts[draw(st.integers(0, len(pts) - 1))]]
    return np.vstack([pts] + extra), p, (a1, b1), (a2, b2)


@st.composite
def _lattice(draw):
    """4 to 14 points of a 3 by 3 by 3 block of the 1/8 lattice in R^3, so
    that many distances are tied, at scales whose 2a are 1/8 to 1/4:
    lattice neighbours along an axis, across a face and across the cube
    diagonal, and two apart along an axis.  Plus three adversarial points:
    one at exactly b2 from the centre along an axis, where the lattice
    points on that axis also lie when the centre is one of them, one at
    exactly 2*a2 from point 0, and a duplicate."""
    cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    n = draw(st.integers(4, 14))
    picked = draw(st.permutations(range(len(cells))))[:n]
    pts = 8 * GRID * np.array([cells[i] for i in picked], float)
    p = draw(st.integers(0, n - 1))
    a1 = GRID * draw(st.integers(4, 6))
    a2 = a1 + GRID * draw(st.integers(0, 2))
    m = draw(st.sampled_from([1, 2, 0]))
    b2 = GRID * 8 * m
    b1 = b2 + GRID * draw(st.integers(0, 12))
    axis = np.array(draw(st.sampled_from([(8, 0, 0), (0, -8, 0), (0, 0, 8)])))
    extra = [pts[p] + axis * m * GRID, pts[0] + (0.0, 0.0, 2 * a2),
             pts[draw(st.integers(0, n - 1))]]
    return np.vstack([pts] + extra), p, (a1, b1), (a2, b2)


def _live_nbrs(live, nbr):
    """The live neighbourhood of each live vertex, 0 for the others, from
    the live mask ``collapse_vertices`` returns and the closed
    neighbourhoods it was given."""
    return [nbr[i] & live ^ 1 << i if live >> i & 1 else 0 for i in range(len(nbr))]


def _replay_collapse(adj, inside, out):
    """Replays ``collapse_vertices`` step by step: every collapse (v, w) was a
    domination of live vertices at that moment, an off-ball v went only onto
    an off-ball w, and at the end no live vertex is dominated under these
    rules, the live mask is that of the replay and ``adj`` is the closed
    graph."""
    live_out, onto = out
    nbr = _live_nbrs(live_out, adj)
    m = len(adj)
    closed = [a | 1 << i for i, a in enumerate(adj)]
    assert adj == closed
    live = (1 << m) - 1
    for v, w in onto:
        assert v != w and live >> v & 1 and live >> w & 1 and closed[v] >> w & 1
        assert not closed[v] & live & ~closed[w]
        assert inside >> v & 1 or not inside >> w & 1
        live ^= 1 << v
    assert live == live_out
    for v in range(m):
        if not live >> v & 1:
            assert nbr[v] == 0
            continue
        assert nbr[v] == closed[v] & live ^ 1 << v
        cand = nbr[v] & (~0 if inside >> v & 1 else ~inside)
        assert all(closed[v] & live & ~closed[w] for w in range(m) if cand >> w & 1)
    return bin(live).count("1")


def _collapse_by_full_scan(adj, inside):
    """Reference: the collapse with every live neighbour of v a candidate,
    returning the live neighbourhoods (0 for collapsed vertices) and the
    collapses."""
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
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                if not nv & ~nbr[w]:
                    live ^= 1 << v
                    onto.append((v, w))
                    again |= (nv ^ (1 << v)) & ~todo
                    break
                cand ^= low
        todo = again
    return [nbr[i] & live ^ (1 << i) if live >> i & 1 else 0
            for i in range(len(nbr))], onto


def _check_collapse(pts, p, level):
    """Replays the collapse of the local graph of one query at one level,
    (scale, ball radius), under its own ball, an empty ball and a ball
    holding every local vertex; returns the number of collapses under its
    own ball."""
    (a, b), c = level, pts[p]
    sq = ((pts - c) ** 2).sum(-1)
    local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
    local = local[np.argsort(sq[local], kind="stable")]
    adj = _adjacency_bits(pts, local, a)
    counts = []
    for nb in (int((sq[local] < b * b).sum()), 0, len(local)):
        out = collapse_vertices(adj, (1 << nb) - 1)
        core = _replay_collapse(adj, (1 << nb) - 1, out)
        assert core + len(out[1]) == len(local)
        counts.append(len(out[1]))
    return counts[0]


@pytest.mark.parametrize("flavor,lmax", [("rips", 1), ("rips", 2), ("rips", 3),
                                         ("cech", 1), ("cech", 2)])
@settings(max_examples=150)
@given(data=st.data(), q=st.sampled_from([2, 3, 5]))
def test_engine_paths_agree_on_grid_ties(flavor, lmax, data, q):
    # collapsed pairs, Rips and Cech, at every lmax: the stacked reduction
    # against the kernel-basis formula and the coned oracle, in the plane
    # and on a lattice in space; from lmax 2 on, filled patches too, where
    # degree 2 is not always zero
    pts, p, level1, level2 = data.draw(_grid_ties() | _lattice() if lmax < 2
                                       else _grid_ties() | _filled_patch() | _lattice())
    (a2, b2), c = level2, pts[p]
    assert ((pts[-3] - c) ** 2).sum() == b2 * b2
    assert ((pts[-2] - pts[0]) ** 2).sum() == (2 * a2) ** 2
    spec = QuerySpec(p, level1, level2, flavor=flavor, q=q, lmax=lmax)
    eng = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=lmax)
    fast = eng.query(c).ranks
    assert image_rank(spec, pts).ranks == fast
    assert image_rank_oracle(spec, pts).ranks == fast


def test_relative_betti_empty_basis():
    pts = np.random.default_rng(0).uniform(-1, 1, (6, 2))
    Q = quotient_pair(pts, pts[0], 0.4, 0.0, "rips", 2)
    assert relative_betti(Q, 0) == 0 and relative_betti(Q, 1) == 0


def test_relative_betti_cycle_mod_arc():
    # 4-cycle (unit square at alpha=0.5, no diagonals) modulo the arc spanned
    # by the two top vertices: circle up to homotopy
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float)
    Q = quotient_pair(pts, (0.5, -0.2), 0.5, 0.7, "rips", 2)
    assert Q.dim_count(0) == 2 and Q.dim_count(1) == 3
    assert relative_betti(Q, 1) == 1
    assert relative_betti(Q, 0) == 0


def test_relative_betti_matches_oracle_on_circle_pair():
    th = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    pts = np.c_[np.cos(th), np.sin(th)]
    Q = quotient_pair(pts, pts[0], 0.6, 1.0, "rips", 2)
    spec = QuerySpec(0, (0.6, 1.0), (0.6, 1.0), lmax=1)
    oracle = image_rank_oracle(spec, pts)
    assert relative_betti(Q, 1) == oracle.rank(1)
    assert relative_betti(Q, 0) == oracle.rank(0)


def test_image_rank_identity_levels():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(5, 10))
        pts = rng.uniform(-1, 1, size=(n, 2))
        a, b = float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.2, 1.0))
        spec = QuerySpec(0, (a, b), (a, b), lmax=1)
        sig = image_rank(spec, pts)
        Q = quotient_pair(pts, pts[0], a, b, "rips", 2)
        assert sig.rank(0) == relative_betti(Q, 0)
        assert sig.rank(1) == relative_betti(Q, 1)


def test_image_rank_zero_codomain():
    pts = np.random.default_rng(2).uniform(-1, 1, (8, 2))
    spec = QuerySpec(0, (0.3, 0.8), (0.4, 0.0), lmax=1)
    assert image_rank(spec, pts).ranks == {0: 0, 1: 0}


def test_nesting_violation_rejected():
    with pytest.raises(ValueError):
        QuerySpec(0, (0.5, 0.5), (0.4, 0.4))
    with pytest.raises(ValueError):
        QuerySpec(0, (0.4, 0.4), (0.5, 0.5))


def test_query_levels_checked_alike():
    # QuerySpec and the engine share one check, with the same messages
    pts = np.random.default_rng(3).uniform(-1, 1, (30, 2))
    for level1, level2, kw, msg in [
            ((0.0, 0.8), (0.3, 0.4), {}, "scale a must be positive"),
            ((-0.1, 0.8), (0.3, 0.4), {}, "scale a must be positive"),
            ((0.2, 0.8), (0.3, -0.4), {}, "ball radius b must be >= 0"),
            ((0.2, 0.8), (0.3, 0.4), {"flavor": "alpha"}, "unknown flavor 'alpha'"),
            ((0.2, 0.8), (0.3, 0.4), {"lmax": -1}, "lmax must be >= 0")]:
        with pytest.raises(ValueError, match=msg):
            QuerySpec(0, level1, level2, **kw)
        with pytest.raises(ValueError, match=msg):
            ImageRankEngine(pts, level1, level2, **kw)


@pytest.mark.parametrize("q", [0, 1, 4, 9])
def test_nonprime_field_rejected(q):
    # GF(q) is a field only for prime q; q = 1 once answered over the zero ring
    pts = np.random.default_rng(3).uniform(-1, 1, (30, 2))
    with pytest.raises(ValueError, match="not prime"):
        ImageRankEngine(pts, (0.2, 0.8), (0.3, 0.4), q=q)
    with pytest.raises(ValueError, match="not prime"):
        QuerySpec(0, (0.2, 0.8), (0.3, 0.4), q=q)
    with pytest.raises(ValueError, match="not prime"):
        image_rank_oracle(QuerySpec(0, (0.2, 0.8), (0.3, 0.4), q=q), pts)


def test_oracle_absolute_homology_two_edges_to_path():
    # A empty at both levels (huge deleted ball removes nothing... b=0 keeps
    # everything, so delete_ball removes nothing): two edges merge into a path
    pts = np.array([(0, 0), (1, 0), (2.2, 0), (3.2, 0)], float)
    spec = QuerySpec(0, (0.5, 10.0), (0.61, 10.0), lmax=1)
    # b >= diameter: every vertex deleted, A empty, reduced H of X itself
    sig = image_rank_oracle(spec, pts)
    assert sig.rank(0) == 1          # two components persist into one: image 1
    assert sig.rank(1) == 0


def test_method_equivalence_200_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts, spec = _random_instance(rng)
        assert image_rank(spec, pts).ranks == image_rank_oracle(spec, pts).ranks


def test_engine_matches_direct():
    rng = np.random.default_rng(8)
    for _ in range(60):
        pts, spec = _random_instance(rng)
        eng = ImageRankEngine(pts, spec.level1, spec.level2,
                              flavor=spec.flavor, q=spec.q, lmax=spec.lmax)
        assert eng.query(pts[spec.p]).ranks == image_rank(spec, pts).ranks
    # lmax = 2: both flavours collapse both levels as at lmax 1
    rng = np.random.default_rng(18)
    for _ in range(20):
        pts, spec = _random_instance(rng, lmax=2)
        eng = ImageRankEngine(pts, spec.level1, spec.level2,
                              flavor=spec.flavor, q=spec.q, lmax=spec.lmax)
        assert eng.kernel == "local vertex collapse"
        fast = eng.query(pts[spec.p]).ranks
        assert fast == image_rank(spec, pts).ranks
        assert fast == image_rank_oracle(spec, pts).ranks


@pytest.mark.parametrize("junction", [False, True])
def test_engine_collapse_matches_direct_clustered(junction):
    rng = np.random.default_rng(12 + junction)
    collapsed = 0
    for _ in range(12):
        pts, p, level1, level2 = _clustered_instance(rng, junction)
        (a2, b2), c = level2, pts[p]
        sq = ((pts - c) ** 2).sum(-1)
        assert sq[-3] == b2 * b2                          # on the ball's boundary
        assert ((pts[-2] - pts[0]) ** 2).sum() == (2 * a2) ** 2   # an edge, just
        collapsed += _check_collapse(pts, p, level2)
        for q in (2, 3):
            spec = QuerySpec(p, level1, level2, flavor="rips", q=q, lmax=1)
            eng = ImageRankEngine(pts, level1, level2, flavor="rips", q=q, lmax=1)
            fast = eng.query(c).ranks
            assert fast == image_rank(spec, pts).ranks
            assert fast == image_rank_oracle(spec, pts).ranks
    assert collapsed > 0


def test_engine_collapse_matches_direct_on_criterion_1_sample():
    # the criterion-1 sample and scales; near the junctions the local sets
    # reach about 130 vertices, and a Cech level-2 set holds up to about
    # 300 bad triangles
    pts = generate_sample(circle_chord(), 0.018, 1500, noise=0.009, seed=7).points
    for flavor, near in [("rips", 20), ("cech", 5)]:
        eng = ImageRankEngine(pts, (0.018, 0.175), (0.06, 0.116), flavor=flavor)
        assert eng.kernel == "local vertex collapse"
        picks = set()
        # the two junctions and an arc
        for x, k in [((-1.0, 0.0), near), ((1.0, 0.0), near), ((0.0, 1.0), 6)]:
            picks.update(np.argsort(((pts - x) ** 2).sum(-1))[:k].tolist())
        ranks = {}
        for i in sorted(picks):
            ranks[i] = eng.query_index(i).ranks
            spec = QuerySpec(i, (0.018, 0.175), (0.06, 0.116), flavor=flavor)
            assert ranks[i] == image_rank(spec, pts).ranks
        assert {r[1] for r in ranks.values()} >= {1, 2}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lmax", [2, 3])
def test_filled_square_degree_2(lmax, q):
    # a 17 x 17 grid, h = 1/16: at its centre the level-1 pair holds a
    # relative 2-cycle that survives into level 2; an edge midpoint, a
    # corner and a point two rows in have none.  The grid's right triangles
    # are not support sets, so the Cech complexes are the Rips ones
    h = 1 / 16
    pts = h * np.array([(x, y) for y in range(17) for x in range(17)], float)
    level1, level2 = (0.75 * h, 4 * h), (h, 3 * h)
    zero = dict.fromkeys(range(lmax + 1), 0)
    for flavor in ("rips", "cech"):
        eng = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=lmax)
        for i, want in [(8 * 17 + 8, {**zero, 2: 1}), (8, zero), (0, zero),
                        (2 * 17 + 8, zero)]:
            spec = QuerySpec(i, level1, level2, flavor=flavor, q=q, lmax=lmax)
            assert eng.query_index(i).ranks == want
            assert image_rank(spec, pts).ranks == want
            assert image_rank_oracle(spec, pts).ranks == want


def _line_with_clusters(far_cluster):
    """1500 points on a line at unit spacing; points 0-5 lie within 1e-3, as
    do points 1494-1499 when ``far_cluster``."""
    pts = np.c_[np.arange(1500.0), np.zeros(1500)]
    pts[0:6, 0] = np.arange(6) * 1.5e-4
    if far_cluster:
        pts[1494:1500, 0] = 1494 + np.arange(6) * 1.5e-4
    return pts


def test_engine_answers_lmax5_on_far_clusters():
    # the 5-simplex on points 1494-1499 would key above 2**63 in base 1501;
    # queries key no simplex, so the engine answers there as the oracle does
    pts = _line_with_clusters(True)
    eng = ImageRankEngine(pts, (0.01, 0.5), (0.01, 0.5), flavor="rips", lmax=5)
    spec = QuerySpec(1494, (0.01, 0.5), (0.01, 0.5), flavor="rips", lmax=5)
    assert eng.query_index(1494).ranks == image_rank_oracle(spec, pts).ranks
    # and on the cluster of points 0-5 alone
    eng = ImageRankEngine(_line_with_clusters(False), (0.01, 0.5), (0.01, 0.5),
                          flavor="rips", lmax=5)
    assert eng.query_index(0).ranks == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}


def test_functoriality_sandwich():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(5, 10))
        pts = rng.uniform(-1, 1, size=(n, 2))
        a = sorted(rng.uniform(0.15, 0.5, size=3))
        b = sorted(rng.uniform(0.1, 1.2, size=3), reverse=True)
        p = int(rng.integers(0, n))
        r12 = image_rank(QuerySpec(p, (a[0], b[0]), (a[1], b[1])), pts).ranks
        r23 = image_rank(QuerySpec(p, (a[1], b[1]), (a[2], b[2])), pts).ranks
        r13 = image_rank(QuerySpec(p, (a[0], b[0]), (a[2], b[2])), pts).ranks
        for ell in r13:
            assert r13[ell] <= min(r12[ell], r23[ell])


def test_rank_bounded_by_both_sides():
    rng = np.random.default_rng(10)
    for _ in range(30):
        pts, spec = _random_instance(rng)
        sig = image_rank(spec, pts)
        Q1 = quotient_pair(pts, pts[spec.p], spec.level1[0],
                           spec.level1[1], spec.flavor, 2)
        Q2 = quotient_pair(pts, pts[spec.p], spec.level2[0],
                           spec.level2[1], spec.flavor, 2)
        for ell in (0, 1):
            assert sig.rank(ell) <= relative_betti(Q1, ell, spec.q)
            assert sig.rank(ell) <= relative_betti(Q2, ell, spec.q)


def test_exactness_check_fixtures():
    pts = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert exactness_check(pts, (0.5, -0.1), 0.5, 0.6)
    assert exactness_check(pts, (0.5, -0.1), 0.5, 0.0)   # A = X


def test_exactness_check_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        pts = rng.uniform(-1, 1, size=(n, 2))
        a = float(rng.uniform(0.2, 0.7))
        b = float(rng.uniform(0.0, 1.2))
        q = int(rng.choice([2, 3]))
        assert exactness_check(pts, pts[0], a, b, "rips", q)


def test_signature_helpers():
    sig = HomologySignature({0: 0, 1: 2}, "direct")
    assert sig.rank(1) == 2 and sig.rank(5) == 0
    assert sig.nonzero() == {1: 2}


def test_signature_ranks_are_shared_and_read_only():
    a = HomologySignature({0: 1, 1: 0}, "direct")
    b = HomologySignature(dict([(0, 1), (1, 0)]), "coned")
    assert a.ranks is b.ranks
    assert HomologySignature({0: 1, 1: 2}, "direct").ranks is not a.ranks
    for mutate in (lambda r: r.__setitem__(0, 2), lambda r: r.__delitem__(0),
                   lambda r: r.update({2: 1}), lambda r: r.pop(0), lambda r: r.popitem(),
                   lambda r: r.setdefault(2, 1), lambda r: r.clear(),
                   lambda r: r.__ior__({2: 1})):
        with pytest.raises(TypeError, match="read-only"):
            mutate(a.ranks)
    assert a.ranks == {0: 1, 1: 0} and isinstance(a.ranks, dict)
    assert repr(a.ranks) == "{0: 1, 1: 0}"
    assert json.dumps(a.ranks) == json.dumps({0: 1, 1: 0})
    for twin in (copy.copy(a.ranks), copy.deepcopy(a.ranks),
                 pickle.loads(pickle.dumps(a.ranks)), copy.deepcopy(a).ranks,
                 pickle.loads(pickle.dumps(a)).ranks):
        assert twin is a.ranks
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("oracle", [False, True])
def test_image_rank_rejects_bad_samples_and_centres(oracle):
    # a NaN point once gave {0: 0, 1: 0} directly and {0: 1, 1: 0} coned;
    # p = -1 answered for the last point and p = n ended in an IndexError
    fn = image_rank_oracle if oracle else image_rank
    pts = np.random.default_rng(0).uniform(-1, 1, (14, 2))
    pts[5] = (np.nan, 0)
    with pytest.raises(ValueError, match="sample points must have finite coordinates"):
        fn(QuerySpec(0, (0.3, 0.9), (0.4, 0.6)), pts)
    pts[5] = (0.25, np.inf)
    with pytest.raises(ValueError, match="sample points must have finite coordinates"):
        fn(QuerySpec(0, (0.3, 0.9), (0.4, 0.6)), pts)
    pts[5] = (0.25, 0.0)
    for p in (-1, 14, 99):
        with pytest.raises(ValueError, match=f"centre index {p} outside range"):
            fn(QuerySpec(p, (0.3, 0.9), (0.4, 0.6)), pts)
    assert fn(QuerySpec(13, (0.3, 0.9), (0.4, 0.6)), pts).ranks == \
        image_rank(QuerySpec(13, (0.3, 0.9), (0.4, 0.6)), pts).ranks


def test_pair_builders_reject_non_finite_samples():
    # a NaN point once stayed an isolated vertex of X while the quotient
    # pair's local set dropped it, so exactness_check answered False, and
    # quotient_pair dropped it silently
    pts = np.random.default_rng(0).uniform(-1, 1, (8, 2))
    for bad in ((np.nan, 0.0), (0.0, -np.inf)):
        pts[3] = bad
        with pytest.raises(ValueError, match="sample points must have finite coordinates"):
            exactness_check(pts, pts[0], 0.5, 0.6)
        with pytest.raises(ValueError, match="sample points must have finite coordinates"):
            quotient_pair(pts, pts[0], 0.5, 0.6)


def test_engine_rejects_invalid_input():
    # the messages of quotient_pair; b2 = 0, the explorer's default, is valid
    pts = np.random.default_rng(3).uniform(-1, 1, (30, 2))
    eng = ImageRankEngine(pts, (0.2, 0.8), (0.3, 0.0))
    with pytest.raises(ValueError, match="ball radius b must be >= 0"):
        eng.query(pts[0], b1=0.8, b2=-0.4)
    with pytest.raises(ValueError, match="ball radius b must be >= 0"):
        ImageRankEngine(pts, (0.2, 0.8), (0.3, -0.4))
    with pytest.raises(ValueError, match="scale a must be positive"):
        ImageRankEngine(pts, (0.0, 0.8), (0.3, 0.4))
    with pytest.raises(ValueError, match="scale a must be positive"):
        ImageRankEngine(pts, (-0.1, 0.8), (0.3, 0.4), flavor="cech")
    # NaN and infinite input once answered all-zero ranks: each comparison
    # with NaN is false, and an infinite centre has no point near it
    nan, inf = float("nan"), float("inf")
    for flavor in ("rips", "cech"):
        good = ImageRankEngine(pts, (0.2, 0.8), (0.3, 0.4), flavor=flavor)
        for bad in [(nan, 0.0), (inf, 0.0), (0.0, -inf)]:
            with pytest.raises(ValueError, match="centre coordinates must be finite"):
                good.query(bad)
        for radii in [{"b1": nan}, {"b2": nan}, {"b1": nan, "b2": nan}]:
            with pytest.raises(ValueError, match="must not be NaN"):
                good.query(pts[0], **radii)
        for level1, level2 in [((nan, 0.8), (0.3, 0.4)), ((0.2, nan), (0.3, 0.4)),
                               ((0.2, 0.8), (nan, 0.4)), ((0.2, 0.8), (0.3, nan))]:
            with pytest.raises(ValueError, match="must not be NaN"):
                ImageRankEngine(pts, level1, level2, flavor=flavor)
            with pytest.raises(ValueError, match="must not be NaN"):
                QuerySpec(0, level1, level2, flavor=flavor)
        for x in (nan, inf):
            sample = pts.copy()
            sample[7, 1] = x
            with pytest.raises(ValueError, match="finite coordinates"):
                ImageRankEngine(sample, (0.2, 0.8), (0.3, 0.4), flavor=flavor)
        spec = QuerySpec(0, (0.2, 0.8), (0.3, 0.4), flavor=flavor)
        assert good.query(pts[0]).ranks == image_rank(spec, pts).ranks
    assert eng.query(pts[0]).ranks == {0: 0, 1: 0}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("flavor,lmax", [("rips", 1), ("rips", 2), ("rips", 3),
                                         ("cech", 1), ("cech", 2)])
def test_engine_pair_memo_matches_fresh_engines(flavor, lmax, q):
    # one engine keeps the level-2 pair of its latest query; every answer of
    # an interleaved sequence equals that of a fresh engine
    pts, p, level1, level2 = _clustered_instance(np.random.default_rng(4), True)
    sq = ((pts - pts[p]) ** 2).sum(-1)
    p2 = int(np.argsort(sq)[5])
    pts = np.vstack([pts, pts[p2]])
    dup = len(pts) - 1
    b1, b2 = level1[1], level2[1]
    seq = [(p, None, None),
           (p, b1 + 4 * GRID, None),      # b1 varies, same pair
           (p, None, b2 / 2),             # r: A -> B -> A
           (p, None, None),
           (p2, None, None),              # new centre, same r
           (dup, b1 + 2 * GRID, None),    # duplicated point, same key
           (dup, None, None),
           (p2, None, 0.0),               # empty smaller ball, no pair
           (p2, None, None),
           (p, None, None)]
    eng = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=lmax)
    got, pairs = [], []
    for i, r1, r2 in seq:
        got.append(eng.query(pts[i], b1=r1, b2=r2).ranks)
        pairs.append(eng._at.level2[1])
        fresh = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=lmax)
        assert got[-1] == fresh.query(pts[i], b1=r1, b2=r2).ranks
    assert any(got[3].values()) and any(got[8].values())
    assert pairs[0] is pairs[1] and pairs[2] is not pairs[3]
    # the duplicate and the query after the empty ball read one pair
    assert pairs[5] is pairs[6] is pairs[7] is pairs[8]
    assert not any(got[7].values())


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("flavor,lmax,shared", [("rips", 1, False), ("rips", 1, True),
                                                ("rips", 2, False), ("rips", 2, True),
                                                ("cech", 1, False), ("cech", 2, False)])
def test_engine_at_one_centre_matches_fresh_engines(flavor, lmax, shared, q):
    # one engine asked at one centre, with ball radii ascending, descending
    # and above its defaults, builds, slices and rebuilds its local graphs
    # (one graph for both levels when a1 == a2); every answer equals that
    # of a fresh engine and of image_rank
    pts, p, (a1, b1), (a2, b2) = _clustered_instance(np.random.default_rng(7), True)
    if shared:
        a2 = a1
    radii = [b2 / 2, b2, b1, b1 + 3 * GRID]
    up = [(R, r) for r in radii for R in radii if R >= r]
    seq = up + up[::-1] + [(b1 + 8 * GRID, b1 + 6 * GRID), (b1 / 2, b2 / 4)]
    eng = ImageRankEngine(pts, (a1, b1), (a2, b2), flavor=flavor, q=q, lmax=lmax)
    seen = set()
    for R, r in seq:
        got = eng.query(pts[p], b1=R, b2=r).ranks
        fresh = ImageRankEngine(pts, (a1, b1), (a2, b2), flavor=flavor, q=q, lmax=lmax)
        spec = QuerySpec(p, (a1, R), (a2, r), flavor=flavor, q=q, lmax=lmax)
        assert got == fresh.query(pts[p], b1=R, b2=r).ranks == image_rank(spec, pts).ranks
        seen.add(tuple(got.values()))
    assert len(seen) > 1
    assert {a: g[0] for a, g in eng._at.graphs.items()} == \
        {a2: b1 + 6 * GRID, a1: b1 + 8 * GRID}


def _same_graph(at, g, h):
    """The engine's graph ``g`` = (nb, bits) at the centre ``at``, its ids
    the leading local ids, equals the reference graph ``h``."""
    nb, bits = g
    return np.array_equal(at.local[:len(bits)], h[0]) and (nb, bits) == h[1:]


def _balls(at):
    return {a: g[0] for a, g in at.graphs.items()}


@pytest.mark.parametrize("seed", range(3))
def test_sliced_local_graph_equals_built_one(seed):
    # on 1/8-grid points with duplicates, and points at exactly b and at
    # b + 2a from the centre for every radius b asked and both scales
    # a1 < a2: one neighbourhood build gives both levels' graphs, and a
    # graph sliced for any smaller ball has the ids, nb and bitmasks of
    # local_graph at (a, b); the two levels' ids are prefixes of one order.
    # A larger ball rebuilds both scales, for max(b, b1)
    rng = np.random.default_rng(60 + seed)
    for t in range(30):
        n = int(rng.integers(5, 40))
        pts = rng.integers(-12, 13, size=(n, 2)) / 8
        pts[rng.integers(0, n, size=n // 4)] = pts[rng.integers(0, n, size=n // 4)]
        c = pts[int(rng.integers(0, n))]
        a1, a2 = sorted(rng.choice([1, 1.5, 2, 3], size=2, replace=False) / 16)
        radii = sorted(rng.integers(0, 16, size=4) / 8)
        extra = [c + s * np.array(u) * d for b in radii for a in (a1, a2)
                 for d in (b, b + 2 * a) for s in (1, -1) for u in [(1, 0), (0, 1)]]
        pts = np.vstack([pts] + extra)
        sq = ((pts - c) ** 2).sum(-1)
        eng = ImageRankEngine(pts, (a1, radii[2]), (a2, 0.0), lmax=0)
        at = eng._centre(c)
        eng._cover(at, radii[-1], radii[-1])
        assert _balls(at) == {a1: radii[-1], a2: radii[-1]}
        kept = at.local
        for b in radii[::-1] + [0.0]:
            eng._cover(at, b, b)
            assert at.local is kept
            ids = []
            for a in (a1, a2):
                g = eng._graph(at, a, b)
                assert _same_graph(at, g, local_graph(pts, sq, a, b))
                ids.append(at.local[:len(g[1])])
            assert np.array_equal(ids[1][:len(ids[0])], ids[0])
        big = radii[-1] + 1 / 8
        eng._cover(at, big, radii[0])
        assert _balls(at) == {a1: big, a2: max(radii[0], radii[2])}
        assert len(at.local) == max(len(g[1]) for g in at.graphs.values())
        for a, ball in _balls(at).items():
            for b in [r for r in radii + [big] if r <= ball]:
                assert _same_graph(at, eng._graph(at, a, b), local_graph(pts, sq, a, b))
        # asked first for small balls, a centre's graphs are built for
        # them; after a query at another centre, a larger level-1 ball
        # rebuilds both scales for b1 at least
        eng._centre(c + (1 / 8, 0))
        at = eng._centre(c)
        eng._cover(at, radii[1], radii[0])
        assert _balls(at) == {a1: radii[1], a2: radii[0]}
        eng._cover(at, radii[1] + 1 / 16, radii[0])
        assert _balls(at) == {a1: max(radii[1] + 1 / 16, radii[2]),
                              a2: max(radii[0], radii[2])}
        for a, ball in _balls(at).items():
            assert _same_graph(at, eng._graph(at, a, ball), local_graph(pts, sq, a, ball))


def test_engine_results_are_shared_and_frozen():
    # equal ranks are one immutable direct signature
    pts, p, level1, level2 = _clustered_instance(np.random.default_rng(4), True)
    eng = ImageRankEngine(pts, level1, level2)
    kept = {}
    for i in range(len(pts)):
        res = eng.query_index(i)
        assert isinstance(res, HomologySignature) and res.method == "direct"
        assert kept.setdefault(tuple(res.ranks.items()), res) is res
    assert len(kept) > 1
    for field, value in (("ranks", {0: 99, 1: 0}), ("method", "coned")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, field, value)


_GATE_PTS = np.random.default_rng(5).uniform(-1, 1, (10, 2))

# every public builder, as a call on (sample, centre, scale a, radius b,
# flavor), the inputs it reads, and the messages it gives where they are
# not the pair's; the image-rank methods centre on point 0
_BUILDERS = {
    "rips": (lambda P, c, a, b, fl: rips(P, None, a, 1), "Pa",
             {"nan-scale": "scales must be >= 0"}),
    "cech": (lambda P, c, a, b, fl: cech(P, None, a, 1), "Pa",
             {"nan-scale": "scales must be >= 0"}),
    "build_complex": (lambda P, c, a, b, fl: build_complex(P, None, a, 1, fl), "Paf",
                      {"nan-scale": "scales must be >= 0"}),
    "delete_ball": (lambda P, c, a, b, fl: delete_ball(P, c, b), "Pcb",
                    {"nan-radius": "ball radius b must be >= 0"}),
    "quotient_pair": (lambda P, c, a, b, fl: quotient_pair(P, c, a, b, fl), "Pcabf", {}),
    "cone_pair": (lambda P, c, a, b, fl: cone_pair(P, c, (a, b), (a, b), fl), "Pcabf", {}),
    "image_rank": (lambda P, c, a, b, fl: image_rank(QuerySpec(0, (a, b), (a, b), fl), P),
                   "Pabf", {}),
    "image_rank_oracle": (lambda P, c, a, b, fl:
                          image_rank_oracle(QuerySpec(0, (a, b), (a, b), fl), P), "Pabf", {}),
    "ImageRankEngine": (lambda P, c, a, b, fl: ImageRankEngine(P, (a, b), (a, b), fl),
                        "Pabf", {}),
    "query": (lambda P, c, a, b, fl:
              ImageRankEngine(_GATE_PTS, (0.3, 0.6), (0.3, 0.6)).query(c, b1=b, b2=b), "cb", {}),
    "exactness_check": (lambda P, c, a, b, fl: exactness_check(P, c, a, b, fl), "Pcabf", {}),
}

# each case changes the inputs of a valid call, "P" setting point 3; the
# first input it names is the one a builder must read for the case to apply
_NAN, _INF = float("nan"), float("inf")
_GATE_CASES = {
    "valid": ({}, None),
    "nan-coordinate": ({"P": (_NAN, 0.0)}, "sample points must have finite coordinates"),
    "inf-coordinate": ({"P": (0.0, -_INF)}, "sample points must have finite coordinates"),
    "nan-centre": ({"c": (_NAN, 0.0)}, "centre coordinates must be finite"),
    "inf-centre": ({"c": (0.0, _INF)}, "centre coordinates must be finite"),
    "3d-centre": ({"c": (0.0, 0.0, 0.0)}, "centre of shape"),
    "nan-scale": ({"a": _NAN}, "must not be NaN"),
    "nan-radius": ({"b": _NAN}, "must not be NaN"),
    "flavor-at-b0": ({"f": "alpha", "b": 0.0}, "unknown flavor 'alpha'"),
}


@pytest.mark.parametrize("builder,case", [
    (builder, case) for builder, (_, reads, _) in _BUILDERS.items()
    for case, (change, _) in _GATE_CASES.items() if not change or next(iter(change)) in reads])
def test_public_builders_share_one_input_gate(builder, case):
    # before the one gate, rips, cech and build_complex kept a NaN
    # point as an isolated vertex, cone_pair took a NaN radius and an
    # infinite centre, delete_ball kept no point at a NaN radius, and
    # quotient_pair gave an empty pair for a NaN scale or radius and for an
    # unknown flavor at b = 0
    call, _, messages = _BUILDERS[builder]
    change, msg = _GATE_CASES[case]
    values = {"c": _GATE_PTS[0], "a": 0.3, "b": 0.6, "f": "rips", **change}
    P = _GATE_PTS.copy()
    if "P" in change:
        P[3] = change["P"]
    args = (P, values["c"], values["a"], values["b"], values["f"])
    if msg is None:
        call(*args)
        return
    with pytest.raises(ValueError, match=messages.get(case, msg)):
        call(*args)


def test_centres_of_another_dimension_rejected():
    # distances read every coordinate of both sides: a planar sample takes
    # only planar centres, in the engine (before its kept centre is
    # consulted, which a (1, 2) centre's bytes would match), quotient_pair
    # (also at b = 0, whose empty pair reads no distance) and delete_ball
    pts = np.random.default_rng(3).uniform(-1, 1, (30, 2))
    eng = ImageRankEngine(pts, (0.2, 0.8), (0.3, 0.4))
    (x, y), kept = pts[0], eng.query(pts[0])
    for bad in [(x, y, 5.0), (x,), [[x, y]]]:
        with pytest.raises(ValueError, match="centre of shape"):
            eng.query(bad)
    assert eng.query(pts[0]) is kept
    for bad in [(x, y, 5.0), (x,), [[x, y]]]:
        for b in (0.8, 0.0):
            with pytest.raises(ValueError, match="coordinates"):
                quotient_pair(pts, bad, 0.2, b)
    # a non-finite centre once gave an empty basis
    for bad in [(float("nan"), 0.0), (x, float("inf"))]:
        for b in (0.8, 0.0):
            with pytest.raises(ValueError, match="centre coordinates must be finite"):
                quotient_pair(pts, bad, 0.2, b)
    for bad in [(x, y, 5.0), (x,)]:
        with pytest.raises(ValueError, match="coordinates"):
            delete_ball(pts, bad, 0.4)


@pytest.mark.parametrize("q", [2, 3])
def test_collinear_cech_triples_on_grid(q):
    # two collinear triples through the centre, along the axes, spaced at
    # exactly a1 and a2: each one's enclosing radius is its scale, a
    # degenerate triangle on the Cech threshold; one point lies at exactly
    # b2 from the centre
    for k in range(1, 9):
        tri = np.array([(0, 0), (k, 0), (2 * k, 0)]) * GRID + (-0.1875, 0.8125)
        for order in itertools.permutations(range(3)):
            assert min_enclosing_radius(tri[list(order)]) == k * GRID
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(8):
        n = int(rng.integers(8, 13))
        th = 2 * math.pi * np.arange(n) / n
        rad = int(rng.integers(6, 11))
        pts = np.round(rad * np.c_[np.cos(th), np.sin(th)]) * GRID
        p = int(rng.integers(0, n))
        c = pts[p]
        a1 = GRID * int(rng.integers(2, 6))
        a2 = a1 + GRID * int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        b2 = GRID * 5 * m
        b1 = b2 + GRID * int(rng.integers(0, 8))
        u, v = np.array([(1.0, 0.0), (0.0, 1.0)])[rng.permutation(2)]
        s = rng.choice([-1.0, 1.0], 2)
        extra = [c + s[0] * a1 * u, c + 2 * s[0] * a1 * u,
                 c + s[1] * a2 * v, c + 2 * s[1] * a2 * v,
                 c + np.array([(3, 4), (-4, 3)][int(rng.integers(0, 2))]) * m * GRID]
        pts = np.vstack([pts] + extra)
        t1, t2 = (p, n, n + 1), (p, n + 2, n + 3)
        assert min_enclosing_radius(pts[list(t1)]) == a1
        assert min_enclosing_radius(pts[list(t2)]) == a2
        assert ((pts[-1] - c) ** 2).sum() == b2 * b2
        assert tuple(sorted(t1)) in cech(pts, None, a1, 2).simplices[2]
        assert tuple(sorted(t2)) in cech(pts, None, a2, 2).simplices[2]
        for lmax in (1, 2):
            spec = QuerySpec(p, (a1, b1), (a2, b2), flavor="cech", q=q, lmax=lmax)
            eng = ImageRankEngine(pts, (a1, b1), (a2, b2), flavor="cech", q=q,
                                  lmax=lmax)
            fast = eng.query(c).ranks
            assert image_rank(spec, pts).ranks == fast
            assert image_rank_oracle(spec, pts).ranks == fast
            seen.add(tuple(sorted(fast.items())))
    assert len(seen) > 1


def test_collapse_keeps_off_ball_vertex_with_tree_edge():
    # ball vertices 0 and 1 go onto the off-ball vertex 4 and keep no edge
    # to it; 4 is then dominated by 3 and goes onto it, off-ball onto
    # off-ball
    adj = [0] * 5
    for u, v in [(0, 4), (1, 4), (3, 4), (2, 3)]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    adj = [a | 1 << i for i, a in enumerate(adj)]
    out = collapse_vertices(adj, 0b11)
    live, onto = out
    assert onto == [(2, 3), (1, 4), (0, 4), (4, 3)]
    assert _live_nbrs(live, adj) == [0] * 5
    # a star on the ball vertex 0: each off-ball leaf is dominated only by
    # the centre, so every vertex stays
    star = [0b1110, 0b0001, 0b0001, 0b0001]
    closed = [a | 1 << i for i, a in enumerate(star)]
    live, onto = collapse_vertices(closed, 0b0001)
    assert (_live_nbrs(live, closed), onto) == (star, [])
    _replay_collapse(adj, 0b11, out)


@pytest.mark.parametrize("seed", range(3))
def test_collapse_matches_full_scan(seed):
    # the pruned candidate scan finds the same dominator as a scan of every
    # live neighbour: the same collapses, in order, and the same live
    # graph, on 1/8-grid points whose distances tie with 2*alpha, with
    # duplicates, isolated vertices, and an empty, full or random ball
    rng = np.random.default_rng(40 + seed)
    collapsed = 0
    for t in range(100):
        n = int(rng.integers(1, 30))
        pts = rng.integers(0, 8, size=(n, 2)) / 8
        pts[rng.integers(0, n, size=n // 4)] = pts[rng.integers(0, n, size=n // 4)]
        if t % 3 == 0:
            pts[-1] = (4.0 + t, 4.0)            # isolated
        local = rng.permutation(n)
        adj = _adjacency_bits(pts, local, float(rng.choice([1, 1.5, 2, 3])) / 16)
        for inside in (0, (1 << n) - 1, int(rng.integers(0, 1 << n))):
            live, onto = collapse_vertices(adj, inside)
            assert (_live_nbrs(live, adj), onto) == _collapse_by_full_scan(adj, inside)
            collapsed += len(onto)
    assert collapsed > 0


def _check_cech_collapse(pts, p, level):
    """Replays the Cech collapse of the local graph of one query at one
    level under its own ball, by brute force against ``cech`` on the live
    vertices: each step (v, w) takes live neighbours, an off-ball v only
    onto an off-ball w, and every Cech simplex of the live vertices that
    holds v is still one with w added; at the end no live vertex is
    dominated so.  A simplex of more than D + 1 vertices that fails holds
    one of D + 1 that does, so only those are tried.  Returns the number of
    collapses."""
    (a, b), c = level, pts[p]
    sq = ((pts - c) ** 2).sum(-1)
    local = np.flatnonzero(sq <= (b + 2 * a) ** 2 * (1 + 1e-12))
    local = local[np.argsort(sq[local], kind="stable")]
    inside = (1 << int((sq[local] < b * b).sum())) - 1
    live, onto = collapse_vertices(_adjacency_bits(pts, local, a), inside,
                                   _bad_simplices(pts, local, a))
    ids = {g: i for i, g in enumerate(local.tolist())}
    top = pts.shape[1] + 1
    cx = {frozenset(ids[g] for g in s)
          for ss in cech(pts, local, a, top).simplices.values() for s in ss}

    def dominated(v, w, alive):
        return all(s | {w} in cx for s in cx if v in s and len(s) <= top and s <= alive)

    alive = set(range(len(local)))
    for v, w in onto:
        assert v != w and {v, w} <= alive and (inside >> v & 1 or not inside >> w & 1)
        assert dominated(v, w, alive)
        alive.remove(v)
    assert alive == set(_bits(live))
    for v in alive:
        for w in alive - {v}:
            if inside >> v & 1 or not inside >> w & 1:
                assert not dominated(v, w, alive)
    return len(onto)


@settings(max_examples=100)
@given(inst=_grid_ties())
def test_collapse_replays_as_dominations_on_grid_ties(inst):
    pts, p, level1, level2 = inst
    _check_collapse(pts, p, level1)
    _check_collapse(pts, p, level2)
    _check_cech_collapse(pts, p, level1)
    _check_cech_collapse(pts, p, level2)


def _collapsed_betti(pts, p, level, flavor, q, top=3):
    """H(X, A) degree by degree, below ``top``, of one level of a query at
    point p: from ``quotient_pair``, and from the engine's collapsed pair,
    without and with the spanning top degree, through the one pair
    interface.  Returns the number of collapses."""
    (a, b), c = level, pts[p]
    full = quotient_pair(pts, c, a, b, flavor, top)
    want = [relative_betti(full, ell, q) for ell in range(top)]
    eng = ImageRankEngine(pts, level, level, flavor=flavor, q=q)
    at = eng._centre(c)
    eng._cover(at, b, b)
    for spanning in (False, True):
        core = eng._collapsed(at, a, b, top, spanning)
        assert [relative_betti(core, ell, q) for ell in range(top)] == want
    return len(core._onto)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("flavor", ["rips", "cech"])
def test_strong_collapse_keeps_relative_homology(flavor, q):
    # each collapse is a strong deformation retraction of the pair, so the
    # collapsed pair has the relative Betti numbers of the uncollapsed one
    rng = np.random.default_rng(13)
    collapses = 0
    for _ in range(40):
        pts, spec = _random_instance(rng, max_pts=12)
        for level in (spec.level1, spec.level2):
            collapses += _collapsed_betti(pts, spec.p, level, flavor, q)
    assert collapses > 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("flavor", ["rips", "cech"])
@settings(max_examples=60)
@given(data=st.data())
def test_strong_collapse_keeps_relative_homology_on_grid_ties(flavor, q, data):
    pts, p, level1, level2 = data.draw(_grid_ties() | _lattice())
    for level in (level1, level2):
        _collapsed_betti(pts, p, level, flavor, q)


@pytest.mark.parametrize("lmax", [0, 1, 2, 3])
def test_rips_rank_query_reads_no_global_complex(lmax):
    # a rank query, Rips or Cech, builds both of its levels from the local
    # graph at every lmax; the engine keeps no global complex
    pts, p, level1, level2 = _clustered_instance(np.random.default_rng(5), True)
    for flavor in ("rips", "cech"):
        spec = QuerySpec(p, level1, level2, flavor=flavor, q=3, lmax=lmax)
        eng = ImageRankEngine(pts, level1, level2, flavor=flavor, q=3, lmax=lmax)
        assert not {"arr1", "face1", "arr2", "keys2", "face2"} & set(vars(eng))
        assert eng.query(pts[p]).ranks == image_rank(spec, pts).ranks
        with pytest.raises(ValueError, match="keep_detail"):
            eng.query(pts[p], keep_detail=True)


@pytest.mark.parametrize("q", [2, 3])
def test_cech_engine_on_hollow_tetrahedron(q):
    # a regular tetrahedron of edge 1 at alpha 0.59: its faces, of
    # circumradius 1/sqrt(3), are Cech simplices and the solid, of
    # circumradius sqrt(3/8), is not, so the Cech complex is a 2-sphere and
    # no vertex is dominated; the Rips complex is the solid.  Balls of
    # radius 2 hold every vertex, so A is empty
    pts = np.array([(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0),
                    (0.5, math.sqrt(3) / 6, math.sqrt(2 / 3))])
    level = (0.59, 2.0)
    for flavor, want in [("cech", {0: 1, 1: 0, 2: 1}), ("rips", {0: 1, 1: 0, 2: 0})]:
        spec = QuerySpec(0, level, level, flavor=flavor, q=q, lmax=2)
        eng = ImageRankEngine(pts, level, level, flavor=flavor, q=q, lmax=2)
        assert eng.query(pts[0]).ranks == want
        assert image_rank(spec, pts).ranks == want
        assert image_rank_oracle(spec, pts).ranks == want


@pytest.mark.parametrize("flavor", ["rips", "cech"])
def test_two_sheets_meeting_on_a_line(flavor):
    # two 17 x 17 lattices, h = 1/8, in the planes z = 0 and y = 0, sharing
    # the 17 points of the x-axis: 561 points.  At the origin the link is
    # two great circles meeting twice, so local H_2 has rank 3; sheet
    # points have rank 1; at (0.75, 0, 0) and (1, 1, 0) the R-ball reaches
    # the boundary of a sheet, and every degree is 0
    h = 1 / 8
    t = np.arange(-8, 9) * h
    z = np.zeros(17 * 17)
    x, y = (g.ravel() for g in np.meshgrid(t, t))
    pts = np.unique(np.r_[np.c_[x, y, z], np.c_[x, z, y]], axis=0)
    assert len(pts) == 561
    level1, level2 = (0.75 * h, 4 * h), (h, 3 * h)
    zero = {0: 0, 1: 0, 2: 0}
    cases = [((0, 0, 0), {**zero, 2: 3}, True), ((0, 0.5, 0), {**zero, 2: 1}, True),
             ((0, 0, -0.5), {**zero, 2: 1}, False), ((0.75, 0, 0), zero, False),
             ((1, 1, 0), zero, False)]
    for q in (2, 3):
        eng = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=2)
        for x, want, oracle in cases:
            p = int(np.flatnonzero((pts == x).all(axis=1))[0])
            spec = QuerySpec(p, level1, level2, flavor=flavor, q=q, lmax=2)
            assert eng.query(pts[p]).ranks == want
            assert image_rank(spec, pts).ranks == want
            if oracle:
                assert image_rank_oracle(spec, pts).ranks == want


@pytest.mark.parametrize("q", [2, 3])
def test_engine_collapse_with_every_local_vertex_in_ball(q):
    # b2 beyond the diameter: A is empty at level 2, every local vertex is a
    # ball vertex, and the collapsed pair computes absolute homology
    pts, p, level1, level2 = _clustered_instance(np.random.default_rng(6), True)
    level1, level2 = (level1[0], 4.0), (level2[0], 4.0)
    spec = QuerySpec(p, level1, level2, flavor="rips", q=q, lmax=1)
    fast = ImageRankEngine(pts, level1, level2, q=q).query(pts[p]).ranks
    assert fast == image_rank(spec, pts).ranks == image_rank_oracle(spec, pts).ranks
    assert fast[0] == 1
