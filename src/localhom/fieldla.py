"""Exact linear algebra over prime fields GF(q).

Two column representations share one API:
  * q = 2 — each column is a Python int bitmask (bit i = row i);
  * odd prime q — each column is a dict {row: coefficient in [1, q-1]}.

All reductions use the lowest-nonzero-row pivot rule, left to right, with no
further heuristics, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def _low2(col: int) -> int:
    return col.bit_length() - 1          # -1 for the zero column


def _lowq(col: dict) -> int:
    return max(col) if col else -1


def _addmul_q(dst: dict, src: dict, factor: int, q: int) -> None:
    for r, c in src.items():
        v = (dst.get(r, 0) + factor * c) % q
        if v:
            dst[r] = v
        else:
            dst.pop(r, None)


def reduce_columns(columns, q: int, track: bool = False):
    """Left-to-right lowest-one column reduction in place.

    Each column is eliminated against earlier columns with the same low until
    its low is unclaimed or it vanishes.  Returns (lows, combos) where
    lows[j] is the pivot row of reduced column j (-1 if zero) and combos[j]
    (when ``track``) expresses reduced column j as a combination of the input
    columns, in the same column representation over the column index space.
    """
    pivot: Dict[int, int] = {}
    lows: List[int] = []
    combos: List = [] if track else None
    if q == 2:
        for j, col in enumerate(columns):
            combo = 1 << j if track else 0
            low = _low2(col)
            while low >= 0 and low in pivot:
                k = pivot[low]
                col ^= columns[k]
                if track:
                    combo ^= combos[k]
                low = _low2(col)
            columns[j] = col
            if low >= 0:
                pivot[low] = j
            lows.append(low)
            if track:
                combos.append(combo)
    else:
        for j, col in enumerate(columns):
            combo = {j: 1} if track else None
            low = _lowq(col)
            while low >= 0 and low in pivot:
                k = pivot[low]
                factor = (-col[low] * pow(columns[k][low], -1, q)) % q
                _addmul_q(col, columns[k], factor, q)
                if track:
                    _addmul_q(combo, combos[k], factor, q)
                low = _lowq(col)
            if low >= 0:
                pivot[low] = j
            lows.append(low)
            if track:
                combos.append(combo)
    return lows, combos


@dataclass
class FieldMatrix:
    """Column-major sparse matrix over GF(q).

    ``columns`` uses the representation matching ``q`` (see module docstring).
    Construct from (row, coefficient) lists via ``from_entries``.
    """

    q: int
    nrows: int
    columns: list

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @classmethod
    def from_entries(cls, q: int, nrows: int, cols: Sequence[Sequence[Tuple[int, int]]]):
        """cols[j] = iterable of (row, coefficient); coefficients taken mod q."""
        if q == 2:
            packed = []
            for col in cols:
                x = 0
                for r, c in col:
                    if c % 2:
                        x ^= 1 << r
                packed.append(x)
        else:
            packed = []
            for col in cols:
                d = {}
                for r, c in col:
                    v = (d.get(r, 0) + c) % q
                    if v:
                        d[r] = v
                    else:
                        d.pop(r, None)
                packed.append(d)
        return cls(q, nrows, packed)

    @classmethod
    def from_dense(cls, q: int, rows: Sequence[Sequence[int]]):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        cols = [[(i, rows[i][j]) for i in range(nrows) if rows[i][j] % q]
                for j in range(ncols)]
        return cls.from_entries(q, nrows, cols)

    def copy_columns(self) -> list:
        if self.q == 2:
            return list(self.columns)
        return [dict(c) for c in self.columns]

    def entries(self, j: int):
        """Sorted (row, coefficient) pairs of column j."""
        if self.q == 2:
            return [(r, 1) for r in _bits(self.columns[j])]
        return sorted(self.columns[j].items())


def _bits(x: int):
    """Indices of set bits of a nonnegative int, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def rank(M: FieldMatrix) -> int:
    """Rank over GF(q); the input is not mutated."""
    lows, _ = reduce_columns(M.copy_columns(), M.q)
    return sum(1 for low in lows if low >= 0)


def rank_of_union(A: FieldMatrix, *others: FieldMatrix) -> int:
    """Rank of the horizontal concatenation [A | B | ...]."""
    for B in others:
        if B.nrows != A.nrows:
            raise ValueError("row count mismatch in rank_of_union")
        if B.q != A.q:
            raise ValueError("modulus mismatch in rank_of_union")
    cols = A.copy_columns()
    for B in others:
        cols.extend(B.copy_columns())
    lows, _ = reduce_columns(cols, A.q)
    return sum(1 for low in lows if low >= 0)


def kernel_basis(M: FieldMatrix) -> FieldMatrix:
    """Basis of the (right) kernel, as columns over the column-index space."""
    cols = M.copy_columns()
    lows, combos = reduce_columns(cols, M.q, track=True)
    ker = [combos[j] for j in range(len(cols)) if lows[j] < 0]
    return FieldMatrix(M.q, M.ncols, ker)


def persistent_reduce(columns, q: int, levels: Sequence[int],
                      degrees: Sequence[int]) -> Dict[int, int]:
    """Image of H(level-1 complex) -> H(level-2 complex) by column reduction.

    ``columns`` is the full boundary matrix of a two-level filtration in its
    own index space (rows = columns = simplices), level-1 block first, faces
    before cofaces within each block.  Returns, per degree, the number of
    level-1 columns that reduce to zero (births in the level-1 complex) whose
    row is never claimed as a pivot by any column — i.e. the unreduced count
    of level-1 homology classes surviving into level 2.
    """
    n = len(columns)
    if not (len(levels) == len(degrees) == n):
        raise ValueError("levels/degrees length mismatch")
    last1 = -1
    for j, lv in enumerate(levels):
        if lv == 1:
            if j != last1 + 1:
                raise ValueError("level-1 columns must form a leading block")
            last1 = j
    lows, _ = reduce_columns(columns, q)
    killed = {low for low in lows if low >= 0}
    out: Dict[int, int] = {}
    for j in range(last1 + 1):
        if lows[j] < 0 and j not in killed:
            out[degrees[j]] = out.get(degrees[j], 0) + 1
    return out
