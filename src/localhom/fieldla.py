"""Exact linear algebra over prime fields GF(q).

Every column is a Python int with one k-bit lane per row: the coefficient
of row r sits in bits r*k .. r*k + k - 1.  At q = 2, k = 1: a column is a
bitmask and addition is XOR.  At odd q, k = (q - 1).bit_length() + 1, so a
sum of two coefficients, at most 2q - 2, stays below each lane's top (guard)
bit: columns add with one integer addition, then adding 2^(k-1) - q to every
lane sets the guard bit of exactly the lanes that reached q, and those have
q subtracted.  A column's low (last nonzero row) is (bit_length - 1) // k,
-1 for the zero column.  Other modules put a coefficient c in row r as
``c << r * lane_width(q)`` and leave all arithmetic on columns to this
module.  A matrix is a list of such columns; its field is passed as ``q``
alongside.

``reduce_columns`` is the one reduction: lowest-nonzero-row pivots, left to
right, with no further heuristics, so results are deterministic.  Ranks,
the direct image rank (``relhom._stacked_rank``, which stacks each level-1
boundary under its level-2 image) and two-level persistence all read its
lows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def lane_width(q: int) -> int:
    """Bits per row of a column over GF(q)."""
    return 1 if q == 2 else (q - 1).bit_length() + 1


@lru_cache(maxsize=64)
def _lane_masks(q: int, nbits: int) -> Tuple[int, int, int, int]:
    """Lane width k and, over ``nbits`` bits at odd q: 2^(k-1) - 1 in every lane
    (carries a nonzero lane into its guard bit), 2^(k-1) - q (carries a lane
    >= q there) and the guard bits."""
    k = lane_width(q)
    ones = ((1 << (nbits // k + 1) * k) - 1) // ((1 << k) - 1)
    return k, ones * ((1 << k - 1) - 1), ones * ((1 << k - 1) - q), ones << k - 1


def _masks(q: int, x: int) -> Tuple[int, int, int, int]:
    """``_lane_masks`` for columns up to x's length, rounded up to a power of two."""
    return _lane_masks(q, 1 << x.bit_length().bit_length())


def add(x: int, y: int, q: int) -> int:
    """Sum of two columns."""
    if q == 2:
        return x ^ y
    k, _, over, guard = _masks(q, max(x, y))
    s = x + y
    return s - ((s + over & guard) >> k - 1) * q


def _nonzero(x: int, q: int) -> int:
    """The lowest bit of every nonzero lane of x."""
    if q == 2:
        return x
    k, nonzero, _, guard = _masks(q, x)
    return (x + nonzero & guard) >> k - 1


def neg(x: int, q: int) -> int:
    """Negated column: q - c in every nonzero lane c."""
    return x if q == 2 else _nonzero(x, q) * q - x


def _multiples(x: int, q: int) -> List[int]:
    """[0, x, 2x, ..., (q - 1)x]."""
    out = [0, x]
    for _ in range(2, q - 1):
        out.append(add(out[-1], x, q))
    out.append(neg(x, q))
    return out


def reduce_columns(columns, q: int):
    """Left-to-right lowest-one column reduction in place.

    Each column is eliminated against earlier columns with the same low until
    its low is unclaimed or it vanishes.  Returns (lows, pivot): lows[j] is
    the low of reduced column j (-1 if zero), and pivot maps each claimed
    row to the column that claims it.
    """
    pivot: Dict[int, int] = {}
    lows: List[int] = []
    if q == 2:
        for j, col in enumerate(columns):
            low = col.bit_length() - 1
            while low >= 0 and low in pivot:
                i = pivot[low]
                col ^= columns[i]
                low = col.bit_length() - 1
            columns[j] = col
            if low >= 0:
                pivot[low] = j
            lows.append(low)
        return lows, pivot
    k, _, over, guard = _masks(q, max(columns, default=0))
    # per pivot column i: -1 / its low coefficient and its multiples; adding
    # multiple f = -c / (low coefficient) cancels a low c
    cancel: Dict[int, tuple] = {}
    for j, col in enumerate(columns):
        low = (col.bit_length() - 1) // k
        while low >= 0 and low in pivot:
            i = pivot[low]
            if i not in cancel:
                cancel[i] = (-pow(columns[i] >> low * k, -1, q), _multiples(columns[i], q))
            u, mult = cancel[i]
            f = (col >> low * k) * u % q
            s = col + mult[f]
            col = s - ((s + over & guard) >> k - 1) * q
            low = (col.bit_length() - 1) // k
        columns[j] = col
        if low >= 0:
            pivot[low] = j
        lows.append(low)
    return lows, pivot


def _require_prime(q: int) -> None:
    if not _is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def _bits(x: int):
    """Indices of set bits of a nonnegative int, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def rank(columns, q: int) -> int:
    """Rank over GF(q); the input is not mutated."""
    _require_prime(q)
    return len(reduce_columns(list(columns), q)[1])


def persistent_reduce(columns, q: int, levels: Sequence[int],
                      degrees: Sequence[int]) -> Dict[int, int]:
    """Image of H(level-1 complex) -> H(level-2 complex) by column reduction.

    ``columns`` is the full boundary matrix of a two-level filtration in its
    own index space (rows = columns = simplices), level-1 block first, faces
    before cofaces within each block; ``degrees[j]`` is the dimension of
    simplex j, so a column's rows are simplices of one degree less, and
    degree-0 columns are zero.  Returns, per degree, the number of level-1
    columns that reduce to zero (births in the level-1 complex) whose row is
    never claimed as a pivot by any column — i.e. the unreduced count of
    level-1 homology classes surviving into level 2.  The input is not
    mutated.

    The degrees are reduced one at a time from the top, each by
    ``reduce_columns`` on its columns in filtration order, with clearing
    (Chen & Kerber, "Persistent homology computation with a twist", 2011):
    a column whose row a column of the degree above claims reduces to zero,
    so it is skipped.  A zero column is never added to another, so the
    others reduce exactly as in one left-to-right pass over the whole
    matrix, and so do their lows.  Degree 0 needs no reduction.
    """
    n = len(columns)
    if not (len(levels) == len(degrees) == n):
        raise ValueError("levels/degrees length mismatch")
    levels = list(levels)
    n1 = levels.count(1)
    if levels[:n1] != [1] * n1:
        raise ValueError("level-1 columns must form a leading block")
    by_degree: Dict[int, List[int]] = {}
    for j, d in enumerate(degrees):
        if d in by_degree:
            by_degree[d].append(j)
        else:
            by_degree[d] = [j]
    out: Dict[int, int] = {}
    claimed = {}        # rows claimed by the degree above
    for d in sorted(by_degree, reverse=True):
        todo = [j for j in by_degree[d] if j not in claimed] if claimed else by_degree[d]
        if d == 0:
            if any(columns[j] for j in todo):
                raise ValueError("degree-0 columns must be zero")
            born = sum(1 for j in todo if j < n1)
        else:
            lows, claimed = reduce_columns([columns[j] for j in todo], q)
            born = sum(1 for j, low in zip(todo, lows) if low < 0 and j < n1)
        if born:
            out[d] = born
    return dict(sorted(out.items()))
