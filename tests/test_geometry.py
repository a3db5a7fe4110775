import math

import numpy as np
import pytest

from localhom import geometry
from localhom.geometry import (Sample, StratifiedShape, Stratum, circle, circle_chord,
                               distance, generate_sample, ground_truth, hausdorff,
                               load_sample_csv, save_sample_csv, segment, sq_dists)


def test_distance_basics():
    assert distance((0, 0), (3, 4)) == 5
    assert distance((1, 1), (1, 1)) == 0
    assert distance((1, 0), (0, 1)) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance((0, 0), (1, 2, 3))


def test_distance_triangle_inequality():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = rng.uniform(-5, 5, size=(3, 3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("D", range(1, 11))
def test_sq_dists_match_numpy_formula_bit_for_bit(D):
    # load_sample_csv reads points with any number of coordinates; numpy's
    # sum over them is a plain loop below 8 terms and an unrolled pairwise
    # sum from 8 on
    rng = np.random.default_rng(D)
    alpha = 5 / 128
    grid = rng.integers(-64, 65, size=(40, D)) / 64
    # a step of exactly 2 * alpha = 5/64: along the axis, or 3-4-5 in a plane
    step = np.zeros(D)
    if D == 1:
        step[0] = 5 / 64
    else:
        step[:2] = (3 / 64, 4 / 64)
    rand = rng.uniform(-1, 1, size=(50, D))
    for P, Q in [(grid, np.vstack([grid + step, rand])), (grid, grid),
                 (rand, rand), (rand, grid)]:
        assert _same_bits(sq_dists(P, Q), ((P[:, None] - Q[None]) ** 2).sum(-1))
        for x in Q[:5]:
            assert _same_bits(sq_dists(P, x), ((P - x) ** 2).sum(-1))
    d = sq_dists(grid, grid + step)
    assert (np.diagonal(d) == (2 * alpha) ** 2).all()


def test_dist_to_shape_circle():
    K = circle()
    d, sid = K.dist((2, 0))
    assert d == pytest.approx(1.0, abs=1e-14)
    assert sid == 0
    d, _ = K.dist((0, 0))
    assert d == pytest.approx(1.0, abs=1e-14)


def test_dist_to_shape_circle_chord():
    K = circle_chord()
    d, sid = K.dist((0, 0.5))
    assert d == pytest.approx(0.5, abs=1e-14)
    assert sid == 2                       # tie with the upper arc goes to the chord


def test_hausdorff_four_circle_points():
    K = circle()
    P = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], float)
    hd = hausdorff(P, K, grid=2048)
    assert hd.value == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=2 * hd.error_bound)


def test_hausdorff_two_circle_points():
    K = circle()
    P = np.array([(1, 0), (-1, 0)], float)
    hd = hausdorff(P, K, grid=2048)
    assert hd.value == pytest.approx(math.sqrt(2), abs=2 * hd.error_bound)


def test_hausdorff_dense_even_points():
    K = circle()
    P = K.even_points(360)
    hd = hausdorff(P, K, grid=4096)
    assert hd.value == pytest.approx(math.sin(math.pi / 360), abs=2 * hd.error_bound)


def test_even_points_needs_two_points_per_component():
    K = circle_chord()
    assert len(K.even_points(4)) == 4
    for n in (-1, 0, 1, 3):
        with pytest.raises(ValueError, match="at least 4"):
            K.even_points(n)
    with pytest.raises(ValueError, match="at least 4"):
        generate_sample(K, 0.5, 3)
    with pytest.raises(ValueError, match="at least 2"):
        generate_sample(circle(), 0.5, 1)


def test_shape_without_sampling_components_has_no_grid():
    # a hand-built shape with strata but nothing to spread points over
    K = _partial_arc_shape()
    pts = np.array([[0.25, 1.0], [-0.5, 0.8]])
    assert np.isfinite(K.dists(pts)[0]).all()
    for call in (lambda: K.grid_points(64), lambda: K.even_points(10),
                 lambda: hausdorff(pts, K, grid=64),
                 lambda: generate_sample(K, 0.1, 10)):
        with pytest.raises(ValueError, match="no sampling components"):
            call()


def test_segment_needs_distinct_endpoints():
    with pytest.raises(ValueError, match="endpoints coincide"):
        segment((0.5, 0.0), (0.5, 0.0))
    with pytest.raises(ValueError, match="endpoints coincide"):
        geometry.make_shape("segment", p0=[0, 0], p1=[0.0, 0.0])
    assert segment((0, 0), (0, 1e-9)).component_lengths() == [1e-9]


def test_generate_sample_circle_150():
    K = circle()
    P = generate_sample(K, 0.05, 150)
    assert len(P) == 150 and not P.noisy and P.t == 0
    hd = hausdorff(P.points, K, grid=1024)
    assert hd.value == pytest.approx(math.sin(math.pi / 150), abs=2 * hd.error_bound)


def test_generate_sample_segment_even_spacing():
    K = segment((0, 0), (1, 0))
    P = generate_sample(K, 0.01, 60)
    hd = hausdorff(P.points, K, grid=4096)
    # 60 points including both endpoints: farthest midpoint gap 1/118
    assert hd.value == pytest.approx(1 / 118, abs=2 * hd.error_bound)


def test_generate_sample_noisy_verified():
    K = circle_chord()
    P = generate_sample(K, 0.018, 1500, noise=0.009, seed=7)
    assert P.noisy and P.t == 1
    hd = hausdorff(P.points, K, grid=1024)
    assert hd.value + hd.error_bound < 0.018
    assert P.true_points is not None


def test_generate_sample_deterministic():
    K = circle()
    a = generate_sample(K, 0.1, 80, noise=0.02, seed=5)
    b = generate_sample(K, 0.1, 80, noise=0.02, seed=5)
    assert np.array_equal(a.points, b.points)


def test_generate_sample_too_small_fails():
    with pytest.raises(ValueError):
        generate_sample(circle(), 0.01, 20)


def test_ground_truth_labels():
    K = circle_chord()
    assert ground_truth(K, (0, 1)).local_ranks == {1: 1}
    assert ground_truth(K, (1, 0)).local_ranks == {1: 2}
    S = segment((0, 0), (1, 0))
    assert ground_truth(S, (0, 0)).local_ranks == {}
    assert ground_truth(S, (0.5, 0)).local_ranks == {1: 1}


def test_ground_truth_requires_on_shape():
    with pytest.raises(ValueError):
        ground_truth(circle(), (0.5, 0.5))


def test_ground_truth_constant_on_stratum():
    K = circle_chord()
    th = np.linspace(0.2, math.pi - 0.2, 7)
    labels = {tuple(sorted(ground_truth(K, (math.cos(t), math.sin(t))).local_ranks.items()))
              for t in th}
    assert len(labels) == 1


def test_csv_roundtrip(tmp_path):
    K = circle()
    P = generate_sample(K, 0.1, 64, noise=0.01, seed=2)
    path = tmp_path / "s.csv"
    save_sample_csv(P, path)
    Q = load_sample_csv(path)
    assert np.array_equal(P.points, Q.points)
    assert Q.epsilon == P.epsilon and Q.noisy == P.noisy and Q.seed == P.seed
    assert np.array_equal(P.true_points, Q.true_points)
    assert Q.shape_meta["kind"] == "circle"


# ---------------------------------------------------------------------------
# The array kernels against the per-point formulas they replaced, bit for bit


def _ref_stratum_dist(s, x):
    x = np.asarray(x, dtype=float)
    if s.kind == "point":
        return float(np.hypot(x[0] - s.params[0], x[1] - s.params[1]))
    if s.kind == "segment":
        x0, y0, x1, y1 = s.params
        p0 = np.array([x0, y0])
        d = np.array([x1 - x0, y1 - y0])
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else float(np.clip((x - p0) @ d / L2, 0.0, 1.0))
        return float(np.linalg.norm(x - (p0 + t * d)))
    cx, cy, r, t0, t1 = s.params
    v = x - np.array([cx, cy])
    if t1 - t0 >= 2 * math.pi - 1e-15:
        return abs(float(np.linalg.norm(v)) - r)
    phi = math.atan2(v[1], v[0])
    phi = t0 + (phi - t0) % (2 * math.pi)
    if phi <= t1:
        return abs(float(np.linalg.norm(v)) - r)
    e0 = np.array([cx + r * math.cos(t0), cy + r * math.sin(t0)])
    e1 = np.array([cx + r * math.cos(t1), cy + r * math.sin(t1)])
    return min(float(np.linalg.norm(x - e0)), float(np.linalg.norm(x - e1)))


def _ref_stratum_project(s, x):
    x = np.asarray(x, dtype=float)
    if s.kind == "point":
        return np.array(s.params, dtype=float)
    if s.kind == "segment":
        x0, y0, x1, y1 = s.params
        p0 = np.array([x0, y0])
        d = np.array([x1 - x0, y1 - y0])
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else float(np.clip((x - p0) @ d / L2, 0.0, 1.0))
        return p0 + t * d
    cx, cy, r, t0, t1 = s.params
    c = np.array([cx, cy])
    v = x - c
    nv = float(np.linalg.norm(v))
    if t1 - t0 >= 2 * math.pi - 1e-15:
        if nv == 0:
            return c + np.array([r, 0.0])
        return c + v * (r / nv)
    phi = math.atan2(v[1], v[0]) if nv > 0 else t0
    phi = t0 + (phi - t0) % (2 * math.pi)
    if phi <= t1 and nv > 0:
        return c + v * (r / nv)
    e0 = c + r * np.array([math.cos(t0), math.sin(t0)])
    e1 = c + r * np.array([math.cos(t1), math.sin(t1)])
    return e0 if np.linalg.norm(x - e0) <= np.linalg.norm(x - e1) else e1


def _ref_shape_dist(K, x):
    best_d, best_sid = math.inf, -1
    for s in K.strata:
        d = _ref_stratum_dist(s, x)
        if d < best_d and not math.isclose(d, best_d, rel_tol=0.0, abs_tol=1e-12):
            best_d, best_sid = d, s.sid
        elif math.isclose(d, best_d, rel_tol=0.0, abs_tol=1e-12) and s.sid < best_sid:
            best_sid = s.sid
            best_d = min(best_d, d)
    return best_d, best_sid


def _ref_hausdorff(points, K, grid):
    """Every sample point against every stratum, every grid point against
    every sample point, in blocks of 256 grid points."""
    pts = np.asarray(points, dtype=float)
    d_ps = max(_ref_shape_dist(K, p)[0] for p in pts)
    g = K.grid_points(grid)
    d_sp = 0.0
    for lo in range(0, len(g), 256):
        d2 = sq_dists(g[lo:lo + 256], pts)
        d_sp = max(d_sp, float(np.sqrt(d2.min(axis=1).max())))
    return max(d_ps, d_sp)


def _partial_arc_shape():
    """One arc of angle 0.3 to 2.0 about (0.25, -0.5), radius 1.5, with
    both ends as 0-strata: the endpoint branches away from the junctions."""
    c, r, t0, t1 = (0.25, -0.5), 1.5, 0.3, 2.0
    ends = [(c[0] + r * math.cos(t), c[1] + r * math.sin(t)) for t in (t0, t1)]
    strata = [Stratum(0, 0, "point", ends[0], valence=1),
              Stratum(1, 0, "point", ends[1], valence=1),
              Stratum(2, 1, "arc", (c[0], c[1], r, t0, t1))]
    return StratifiedShape("arc", strata, [])


def _exactness_points():
    rng = np.random.default_rng(18)
    xs = np.linspace(-0.95, 0.95, 39)
    # equidistant from the chord and an arc: y = (1 - x^2) / 2 above the
    # chord, mirrored below; then off by up to twice the tie tolerance
    tie_y = (1 - xs ** 2) / 2
    ties = [np.c_[xs, sgn * tie_y + dy] for sgn in (1, -1)
            for dy in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12)]
    special = np.array([
        (-1.0, 0.0), (1.0, 0.0),                 # the junctions
        (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0),    # the circle centre, nv = 0
        (0.25, -0.5),                            # the partial arc's centre
        (-0.5, 0.0), (-0.5, -0.0), (0.5, 0.0), (0.5, -0.0),   # phi == t1
        (-2.0, 0.0), (2.0, -0.0), (0.0, 1.0), (0.0, -1.0),
        (0.25 + 1.5 * math.cos(2.0), -0.5 + 1.5 * math.sin(2.0)),
        (0.25 + 3 * math.cos(0.3), -0.5 + 3 * math.sin(0.3)),
        (0.3, 1e-300), (1e-300, 0.7), (0.5 + 1e-13, 0.5),
    ])
    # a few ulps of angle from the partial arc's ends, where np.arctan2
    # (numpy 2.4 on x86-64) and math.atan2 put the point on different sides
    # of the end
    ends = np.array([[float.fromhex(a), float.fromhex(b)] for a, b in [
        ("0x1.1fecc2ebb8e00p+1", "0x1.e556b243fb7a8p-4"),
        ("0x1.f456dc6891b12p+0", "0x1.be6f9f0f9a6a0p-6"),
        ("0x1.f72c2d80da72fp+0", "0x1.f687183ed4520p-6"),
        ("0x1.765b41959275cp-3", "-0x1.699f27b206ad0p-2")]])
    lattice = np.stack(np.meshgrid(np.arange(-32, 33) / 16,
                                   np.arange(-32, 33) / 16), -1).reshape(-1, 2)
    t = rng.uniform(0, 2 * math.pi, 300)
    rand = np.vstack([rng.uniform(-2.5, 2.5, size=(1200, 2)),
                      rng.normal(0.0, 1e-3, size=(100, 2)), np.c_[np.cos(t), np.sin(t)]])
    pts = np.vstack([special, ends, *ties, lattice, rand])
    return np.vstack([pts, pts[::7]])            # and duplicates


_EXACT_SHAPES = [circle(), circle(2.0), circle_chord(), segment((0, 0), (1, 0)),
                 segment((-0.3, 0.7), (1.1, -0.4)), _partial_arc_shape()]


@pytest.mark.parametrize("K", _EXACT_SHAPES, ids=lambda K: K.kind)
def test_stratum_kernels_match_per_point_formulas(K):
    X = _exactness_points()
    for s in K.strata:
        want = np.array([_ref_stratum_dist(s, x) for x in X])
        assert _same_bits(s.dists(X), want), (K.kind, s.sid)
        want = np.array([_ref_stratum_project(s, x) for x in X])
        assert _same_bits(s.projections(X), want), (K.kind, s.sid)
        for x in X[:40]:
            assert s.dist(x) == _ref_stratum_dist(s, x)
            assert _same_bits(s.project(x), _ref_stratum_project(s, x))


@pytest.mark.parametrize("K", _EXACT_SHAPES, ids=lambda K: K.kind)
def test_shape_kernels_match_per_point_formulas(K):
    X = _exactness_points()
    ref = [_ref_shape_dist(K, x) for x in X]
    want_d = np.array([d for d, _ in ref])
    want_sid = np.array([sid for _, sid in ref])
    d, sid = K.dists(X)
    assert _same_bits(d, want_d) and sid.tolist() == want_sid.tolist()
    proj, psid, pd = K.projections(X)
    want = np.array([_ref_stratum_project(K.strata[k], x) for k, x in zip(want_sid, X)])
    assert _same_bits(proj, want)
    assert psid.tolist() == want_sid.tolist() and _same_bits(pd, want_d)
    zs = K.zero_strata()
    want = np.array([min((_ref_stratum_dist(s, x) for s in zs), default=math.inf)
                     for x in X])
    assert _same_bits(K.zero_strata_dists(X), want)
    for x, (dx, kx) in zip(X[:60], ref[:60]):
        assert K.dist(x) == (dx, kx)
        p, k, dd = K.project(x)
        assert _same_bits(p, _ref_stratum_project(K.strata[kx], x)) and (k, dd) == (kx, dx)
    on = proj[::5]
    labels = K.ground_truths(on)
    assert [gt.stratum_id for gt in labels] == [K.dist(x)[1] for x in on]
    assert labels == [K.ground_truth(x) for x in on]


@pytest.mark.parametrize("bad", [np.zeros((0, 2)), np.zeros((4, 3)), np.zeros((4, 1)),
                                 np.zeros(2), [[0.0, math.nan]], [[math.inf, 0.0]]])
def test_kernels_reject_non_planar_points(bad):
    K = circle_chord()
    for call in (K.dists, K.projections, K.strata[3].dists, K.ground_truths,
                 lambda X: hausdorff(X, K, grid=64)):
        with pytest.raises(ValueError, match="nonempty \\(n, 2\\) array|finite"):
            call(bad)
    with pytest.raises(ValueError, match="2 coordinates"):
        K.dist((0.0, 1.0, 0.0))


def _hausdorff_inputs():
    K = circle_chord()
    P = generate_sample(K, 0.018, 1500, noise=0.009, seed=7).points
    rng = np.random.default_rng(5)
    # the upper arc left out: its grid points find no sample point in their
    # boxes and fall back to the whole sample
    no_arc = P[(P[:, 1] < 0.05) | (np.abs(P[:, 0]) > 0.95)]
    return [
        (K, P, 445), (K, no_arc, 445), (K, K.even_points(400), 160),
        (K, np.array([[0.1, 0.2]]), 64), (K, np.vstack([P[:50], P[:50]]), 200),
        (circle(), K.even_points(60) * 1.5, 300),
        (circle(2.0), rng.normal(0.0, 1.0, size=(300, 2)), 128),
        (segment((0, 0), (1, 0)), np.r_[generate_sample(
            segment((0, 0), (1, 0)), 0.01, 60).points, [[3.0, 4.0]]], 4096),
        (segment((-0.3, 0.7), (1.1, -0.4)), rng.uniform(-1, 1, size=(200, 2)), 256),
    ]


def test_hausdorff_matches_unpruned_scan():
    for K, pts, grid in _hausdorff_inputs():
        got = hausdorff(pts, K, grid=grid)
        assert got.value == _ref_hausdorff(pts, K, grid), (K.kind, len(pts), grid)
        assert got.error_bound == 0.5 / grid


def test_hausdorff_values_pinned():
    # computed by the per-point, unpruned implementation this one replaced
    K = circle_chord()
    P = generate_sample(K, 0.018, 1500, noise=0.009, seed=7)
    assert repr(hausdorff(P.points, K, grid=445).value) == "0.01033413366718397"
    assert repr(hausdorff(K.even_points(400), K, grid=160).value) == "0.010384012539184972"


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_sample_wants_positive_finite_epsilon(eps):
    # a NaN epsilon once passed the epsilon > 0 test
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        Sample(np.zeros((3, 2)), eps, False)
