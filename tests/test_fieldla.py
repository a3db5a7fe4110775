import math

import numpy as np
import pytest

from localhom.complexes import cone_pair
from localhom.fieldla import add, entries, neg, pack, persistent_reduce, rank, reduce_columns
from reference import persistent_reduce_plain

PRIMES = (2, 3, 5, 7)


def _columns(dense, q):
    # packed columns of a dense (rows, columns) table
    return pack([list(enumerate(col)) for col in np.asarray(dense).T.tolist()], q)


def _random_matrix(rng, q, m, n):
    dense = rng.integers(0, q, size=(m, n))
    return _columns(dense, q), dense


def _dense_rank(A, q):
    # reference: Gauss-Jordan elimination mod q on a dense integer array
    A = A.copy() % q
    m, n = A.shape
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i, col]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, col]), -1, q) % q
        for i in range(m):
            if i != r and A[i, col]:
                A[i] = (A[i] - A[i, col] * A[r]) % q
        r += 1
    return r


def _dense_reduce(A, q):
    # reference: the same left-to-right lowest-one reduction on dense columns
    A = A.copy() % q
    pivot, lows = {}, []
    for j in range(A.shape[1]):
        nz = np.flatnonzero(A[:, j])
        while len(nz) and nz[-1] in pivot:
            low, k = nz[-1], pivot[nz[-1]]
            f = -A[low, j] * pow(int(A[low, k]), -1, q) % q
            A[:, j] = (A[:, j] + f * A[:, k]) % q
            nz = np.flatnonzero(A[:, j])
        if len(nz):
            pivot[nz[-1]] = j
        lows.append(int(nz[-1]) if len(nz) else -1)
    return A, lows


def _column(x, q, m):
    vec = np.zeros(m, dtype=np.int64)
    for r, c in entries(x, q):
        vec[r] = c
    return vec


def _assert_reduces_like_dense(dense, q):
    cols = _columns(dense, q)
    lows, pivot = reduce_columns(cols, q)
    want, want_lows = _dense_reduce(dense, q)
    assert lows == want_lows
    assert pivot == {low: j for j, low in enumerate(lows) if low >= 0}
    for j, x in enumerate(cols):
        assert np.array_equal(_column(x, q, dense.shape[0]), want[:, j])


def test_rank_trivial():
    assert rank(_columns([[0, 0], [0, 0]], 2), 2) == 0
    assert rank(_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2), 2) == 3
    assert rank(_columns([[1, 1], [1, 1]], 2), 2) == 1
    assert rank([], 2) == 0


def test_rank_nonprime_modulus():
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        rank([1], 4)
    with pytest.raises(ValueError, match="modulus 1 is not prime"):
        rank([1], 1)


def test_rank_does_not_mutate():
    cols = _columns([[1, 1], [1, 0]], 2)
    before = list(cols)
    rank(cols, 2)
    assert cols == before


def test_rank_matches_transpose():
    rng = np.random.default_rng(0)
    for q in (2, 3, 5):
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            cols, dense = _random_matrix(rng, q, m, n)
            assert rank(cols, q) == rank(_columns(dense.T, q), q)


def test_rank_column_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cols, dense = _random_matrix(rng, 3, 6, 6)
        perm = rng.permutation(6)
        assert rank(cols, 3) == rank(_columns(dense[:, perm], 3), 3)


def test_rank_matches_numpy_gf2():
    # oracle: numpy elimination mod q, GF(2) and odd q alike
    rng = np.random.default_rng(2)
    for q in PRIMES:
        for _ in range(30):
            m, n = rng.integers(1, 10, size=2)
            cols, dense = _random_matrix(rng, q, m, n)
            assert rank(cols, q) == _dense_rank(dense, q)
            _assert_reduces_like_dense(dense, q)


def test_lane_overflow_cases():
    # every lane at q - 1 sums to 2q - 2, the most a lane must hold
    for q in PRIMES:
        m = 40                       # several machine words of lanes
        full = np.full((m, 1), q - 1)
        # against itself (factor q - 1) and against each multiple f * pivot
        for f in range(1, q):
            _assert_reduces_like_dense(np.hstack([full, f * full % q]), q)
            _assert_reduces_like_dense(np.hstack([f * full % q, full]), q)
        # a lone nonzero in the top lane, alone and over a full pivot
        top = np.zeros((m, 1), dtype=np.int64)
        top[-1] = q - 1
        _assert_reduces_like_dense(np.hstack([top, full, top, full]), q)
        # column arithmetic on the same extremes
        x, t = pack([[(r, q - 1) for r in range(m)], [(m - 1, q - 1)]], q)
        assert np.array_equal(_column(add(x, x, q), q, m), 2 * full[:, 0] % q)
        assert np.array_equal(_column(neg(x, q), q, m), np.ones(m))
        assert add(x, neg(x, q), q) == 0
        assert entries(neg(t, q), q) == [(m - 1, 1)]
        assert np.array_equal(_column(add(t, x, q), q, m), (top + full)[:, 0] % q)


def test_column_arithmetic_matches_dense():
    rng = np.random.default_rng(5)
    for q in PRIMES:
        for _ in range(50):
            m = int(rng.integers(1, 70))
            a, b = rng.integers(0, q, size=(2, m))
            x, y = pack([list(enumerate(a.tolist())), list(enumerate(b.tolist()))], q)
            assert np.array_equal(_column(x, q, m), a)
            assert np.array_equal(_column(add(x, y, q), q, m), (a + b) % q)
            assert np.array_equal(_column(neg(x, q), q, m), -a % q)


@pytest.mark.parametrize("q", [2, 3])
def test_pack_takes_numpy_integers(q):
    # numpy rows and coefficients, as index arrays give them, with rows
    # whose lanes start past bit 63
    rows, coefs = np.array([3, 70, 90]), np.array([1, q + 1, -1])
    cols = [[(rows[1], coefs[0])],
            [(rows[0], coefs[2]), (rows[2], coefs[1])],
            list(zip(rows, coefs))]
    packed = pack(cols, q)
    dense = np.zeros((100, 3), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, c in col:
            dense[r, j] = c % q
    assert all(type(x) is int for x in packed)
    for j, x in enumerate(packed):
        assert np.array_equal(_column(x, q, 100), dense[:, j])
    assert rank(packed, q) == _dense_rank(dense, q)


def test_persistent_reduce_single_level_betti():
    # path with 3 vertices, 2 edges: b0 = 1, b1 = 0
    cols = [[], [], [], [(0, 1), (1, -1)], [(1, 1), (2, -1)]]
    packed = [sum(1 << r for r, _ in c) for c in cols]
    out = persistent_reduce(packed, 2, [1] * 5, [0, 0, 0, 1, 1])
    assert out == {0: 1}


def test_persistent_reduce_two_level_edge():
    # K1 = two vertices, K2 adds the edge: one degree-0 class survives
    packed = [0, 0, (1 << 0) ^ (1 << 1)]
    out = persistent_reduce(packed, 2, [1, 1, 2], [0, 0, 1])
    assert out == {0: 1}


def test_persistent_reduce_level_order_enforced():
    with pytest.raises(ValueError):
        persistent_reduce([0, 0], 2, [2, 1], [0, 0])


def test_persistent_reduce_rejects_nonzero_degree_0_column():
    with pytest.raises(ValueError, match="degree-0"):
        persistent_reduce([0, 1], 2, [1, 1], [0, 0])


@pytest.mark.parametrize("flavor", ["rips", "cech"])
@pytest.mark.parametrize("D", [2, 3])
def test_persistent_reduce_with_clearing_matches_plain_reduction(D, flavor):
    # coned two-level filtrations of 1/16-grid instances at max_dim 1-3; A
    # is empty at both levels in every fifth instance; the columns are not
    # mutated
    rng = np.random.default_rng(40 + D)
    for k in range(25):
        n = int(rng.integers(4, 13))
        pts = np.round(rng.uniform(-1, 1, (n, D)) * 16) / 16
        p = int(rng.integers(0, n))
        a1 = round(float(rng.uniform(0.15, 0.5)) * 32) / 32
        a2 = a1 + round(float(rng.uniform(0.0, 0.3)) * 32) / 32
        b1 = round(float(rng.uniform(0.2, 1.5)) * 32) / 32
        b2 = round(float(rng.uniform(0.0, b1)) * 32) / 32
        if k % 5 == 0:
            b2 = 2 * math.sqrt(D) + 0.5
            b1 = b2 + 0.5
        cp = cone_pair(pts, pts[p], (a1, b1), (a2, b2), flavor, int(rng.integers(1, 4)))
        for q in (2, 3, 5):
            cols = cp.boundary_columns(q)
            kept = list(cols)
            got = persistent_reduce(cols, q, cp.levels, cp.dims)
            assert cols == kept
            assert got == persistent_reduce_plain(cols, q, cp.levels, cp.dims)
            assert list(got) == sorted(got)
