import math

import numpy as np
import pytest

from localhom import geometry
from localhom.geometry import (circle, circle_chord, distance, generate_sample,
                               ground_truth, hausdorff, load_sample_csv,
                               save_sample_csv, segment, sq_dists)


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
