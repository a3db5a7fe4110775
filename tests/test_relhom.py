import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localhom.complexes import (_adjacency_bits, cech, collapse_vertices,
                                min_enclosing_radius, quotient_pair)
from localhom.geometry import circle_chord, generate_sample
from localhom.relhom import (HomologySignature, ImageRankEngine, QuerySpec,
                             exactness_check, image_rank, image_rank_oracle,
                             relative_betti)


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


def _replay_collapse(adj, inside, nbr, onto):
    """Replays ``collapse_vertices`` step by step: every collapse (v, w) was a
    domination of live vertices at that moment, an off-ball v went only onto
    an off-ball w, and at the end no live vertex is dominated under these
    rules and ``nbr`` is the live graph."""
    m = len(adj)
    closed = [a | 1 << i for i, a in enumerate(adj)]
    live = (1 << m) - 1
    for v, w in onto:
        assert v != w and live >> v & 1 and live >> w & 1 and closed[v] >> w & 1
        assert not closed[v] & live & ~closed[w]
        assert inside >> v & 1 or not inside >> w & 1
        live ^= 1 << v
    for v in range(m):
        if not live >> v & 1:
            assert nbr[v] == 0
            continue
        assert nbr[v] == closed[v] & live ^ 1 << v
        cand = nbr[v] & (~0 if inside >> v & 1 else ~inside)
        assert all(closed[v] & live & ~closed[w] for w in range(m) if cand >> w & 1)
    return bin(live).count("1")


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
        nbr, onto = collapse_vertices(adj, (1 << nb) - 1)
        core = _replay_collapse(adj, (1 << nb) - 1, nbr, onto)
        assert core + len(onto) == len(local)
        counts.append(len(onto))
    return counts[0]


@pytest.mark.parametrize("flavor,lmax", [("rips", 1), ("rips", 2), ("rips", 3),
                                         ("cech", 1)])
@settings(max_examples=150)
@given(data=st.data(), q=st.sampled_from([2, 3, 5]))
def test_engine_paths_agree_on_grid_ties(flavor, lmax, data, q):
    # collapsed pairs (Rips, every lmax) and global pair (Cech): the stacked
    # reduction against the kernel-basis formula and the coned oracle; from
    # lmax 2 on, filled patches too, where degree 2 is not always zero
    pts, p, level1, level2 = data.draw(_grid_ties() if lmax < 2
                                       else _grid_ties() | _filled_patch())
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
    # lmax = 2: Rips collapses both levels as at lmax 1, Cech reads the
    # global level-2 complex
    rng = np.random.default_rng(18)
    for _ in range(20):
        pts, spec = _random_instance(rng, lmax=2)
        eng = ImageRankEngine(pts, spec.level1, spec.level2,
                              flavor=spec.flavor, q=spec.q, lmax=spec.lmax)
        assert eng.kernel == {"rips": "local rips vertex collapse",
                              "cech": "global level-2 basis"}[spec.flavor]
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
    # reach about 130 vertices
    pts = generate_sample(circle_chord(), 0.018, 1500, noise=0.009, seed=7).points
    eng = ImageRankEngine(pts, (0.018, 0.175), (0.06, 0.116))
    assert eng.kernel == "local rips vertex collapse"
    picks = set()
    # the two junctions and an arc
    for x, k in [((-1.0, 0.0), 20), ((1.0, 0.0), 20), ((0.0, 1.0), 6)]:
        picks.update(np.argsort(((pts - x) ** 2).sum(-1))[:k].tolist())
    ranks = {}
    for i in sorted(picks):
        ranks[i] = eng.query_index(i).ranks
        spec = QuerySpec(i, (0.018, 0.175), (0.06, 0.116))
        assert ranks[i] == image_rank(spec, pts).ranks
    assert {r[1] for r in ranks.values()} >= {1, 2}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lmax", [2, 3])
def test_filled_square_degree_2(lmax, q):
    # a 17 x 17 grid, h = 1/16: at its centre the level-1 pair holds a
    # relative 2-cycle that survives into level 2; an edge midpoint, a
    # corner and a point two rows in have none
    h = 1 / 16
    pts = h * np.array([(x, y) for y in range(17) for x in range(17)], float)
    level1, level2 = (0.75 * h, 4 * h), (h, 3 * h)
    eng = ImageRankEngine(pts, level1, level2, q=q, lmax=lmax)
    zero = dict.fromkeys(range(lmax + 1), 0)
    for i, want in [(8 * 17 + 8, {**zero, 2: 1}), (8, zero), (0, zero), (2 * 17 + 8, zero)]:
        spec = QuerySpec(i, level1, level2, q=q, lmax=lmax)
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


def test_engine_rejects_int64_key_overflow():
    # the 5-simplex on points 1494-1499 keys above 2**63 in base 1501
    with pytest.raises(ValueError, match="1500 points .* 5-simplices"):
        ImageRankEngine(_line_with_clusters(True), (0.01, 0.5), (0.01, 0.5),
                        flavor="rips", lmax=5)
    # the 5-simplex on points 0-5 keys well below it
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
    assert eng.query(pts[0]).ranks == {0: 0, 1: 0}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("flavor,lmax", [("rips", 1), ("rips", 2), ("rips", 3),
                                         ("cech", 1)])
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
        pairs.append(eng._memo[1])
        fresh = ImageRankEngine(pts, level1, level2, flavor=flavor, q=q, lmax=lmax)
        assert got[-1] == fresh.query(pts[i], b1=r1, b2=r2).ranks
    assert any(got[3].values()) and any(got[8].values())
    assert pairs[0] is pairs[1] and pairs[2] is not pairs[3]
    # the duplicate and the query after the empty ball read one pair
    assert pairs[5] is pairs[6] is pairs[7] is pairs[8]
    assert not any(got[7].values())


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
        assert cech(pts, None, a1, 2).has(tuple(sorted(t1)))
        assert cech(pts, None, a2, 2).has(tuple(sorted(t2)))
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
    nbr, onto = collapse_vertices(adj, 0b11)
    assert onto == [(2, 3), (1, 4), (0, 4), (4, 3)]
    assert nbr == [0] * 5
    # a star on the ball vertex 0: each off-ball leaf is dominated only by
    # the centre, so every vertex stays
    star = [0b1110, 0b0001, 0b0001, 0b0001]
    assert collapse_vertices(star, 0b0001) == (star, [])
    _replay_collapse(adj, 0b11, nbr, onto)


@settings(max_examples=100)
@given(inst=_grid_ties())
def test_collapse_replays_as_dominations_on_grid_ties(inst):
    pts, p, level1, level2 = inst
    _check_collapse(pts, p, level1)
    _check_collapse(pts, p, level2)


@pytest.mark.parametrize("lmax", [0, 1, 2, 3])
def test_rips_rank_query_reads_no_global_complex(lmax):
    # a Rips rank query builds both of its levels from the local graph at
    # every lmax; the engine builds no global level-2 complex
    pts, p, level1, level2 = _clustered_instance(np.random.default_rng(5), True)
    spec = QuerySpec(p, level1, level2, flavor="rips", q=3, lmax=lmax)
    eng = ImageRankEngine(pts, level1, level2, flavor="rips", q=3, lmax=lmax)
    assert not hasattr(eng, "arr2")
    del eng.arr1, eng.face1
    assert eng.query(pts[p]).ranks == image_rank(spec, pts).ranks
    with pytest.raises(ValueError, match="keep_detail"):
        eng.query(pts[p], keep_detail=True)


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
