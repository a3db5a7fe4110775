"""Empirical scans of admissible (R, r) scale regions at a fixed pair of
complex scales.

Everything here is EMPIRICAL: the continuous-neighborhood condition is
approximated by image-rank queries over a dense noise-free sample of the
shape, so membership is a surrogate, not a certified decision.  The scans
exist to probe the qualitative structure the theory predicts — interval
line sections, nesting across the second complex scale, and a triangle-shaped
admissible region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import StratifiedShape, hausdorff, hausdorff_grid
from .relhom import ImageRankEngine


@dataclass
class AlphaSectionScan:
    """Membership grid of one scan: member[i][j] says whether the image-rank
    query with ball radii (R=values[i], r=values[j]) recovered the ground
    truth at the scan center.  Cells outside the domain R >= r > alpha are
    None.  ``dense_hausdorff`` is the Hausdorff distance from the shape of
    the dense set the scan drew, and None when the caller gave the set."""

    center: Tuple[float, ...]
    alpha: float
    eps: float
    values: np.ndarray                  # shared R/r value grid, ascending
    member: List[List[Optional[bool]]]
    dense_n: int
    dense_hausdorff: Optional[float]
    summary: dict = field(default_factory=dict)

    def cells(self):
        for i in range(len(self.values)):
            for j in range(len(self.values)):
                if self.member[i][j] is not None:
                    yield i, j, self.member[i][j]


def _largest_triangle(member) -> Tuple[int, int]:
    """Largest (a, b), b >= a, such that every domain cell with
    a <= j <= i <= b is a member — the discrete right isosceles triangle with
    hypotenuse on the diagonal.  Returns (-1, -1) when none exists."""
    n = len(member)
    best = (-1, -1)
    for a in range(n):
        for b in range(a, n):
            ok = True
            for i in range(a, b + 1):
                for j in range(a, i + 1):
                    if member[i][j] is not True:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
            if best == (-1, -1) or (b - a) > (best[1] - best[0]):
                best = (a, b)
    return best


def scan_alpha_section(K: StratifiedShape, x, alpha: float, eps: float,
                       values: Sequence[float], dense_n: int = 1000,
                       flavor: str = "rips", q: int = 2,
                       engine: Optional[ImageRankEngine] = None,
                       dense_points: Optional[np.ndarray] = None
                       ) -> AlphaSectionScan:
    """Scan (R, r) membership at complex scales (eps, alpha) around x.

    ``values`` is the shared grid for both R and r; only cells in the domain
    R >= r > alpha >= eps are evaluated.  Membership: the image rank of the
    query equals the analytic local homology at x.  Without
    ``dense_points`` the scan draws ``dense_n`` even points of K and
    measures their Hausdorff distance from K; a caller's set is not
    measured.

    Cells are visited column by column: r in the outer loop, R rising in the
    inner one.  The level-2 pair depends only on x and r, and the engine
    reuses the pair of its latest query, so each r value builds one pair.
    """
    if not (alpha >= eps > 0):
        raise ValueError("need alpha >= eps > 0")
    values = np.asarray(sorted(float(v) for v in values))
    if not (values > alpha).any():
        raise ValueError("infeasible grid: no value exceeds alpha")
    x = np.asarray(x, dtype=float)
    gt = K.ground_truth(x).local_ranks
    hd = None
    if dense_points is None:
        dense_points = K.even_points(dense_n)
        hd = hausdorff(dense_points, K, grid=hausdorff_grid(eps)).value
    if engine is None:
        bmax = float(values[-1])
        engine = ImageRankEngine(dense_points, (eps, bmax), (alpha, 0.0),
                                 flavor=flavor, q=q, lmax=1)
    n = len(values)
    grid = values.tolist()
    member: List[List[Optional[bool]]] = [[None] * n for _ in range(n)]
    for j in range(n):
        r = grid[j]
        if r <= alpha:
            continue
        for i in range(j, n):
            R = grid[i]
            member[i][j] = engine.query(x, b1=R, b2=r).nonzero() == gt
    scan = AlphaSectionScan(tuple(float(v) for v in x), alpha, eps, values,
                            member, len(dense_points), hd)
    a, b = _largest_triangle(member)
    if a >= 0:
        scan.summary = {
            "tau": float(values[b] - values[a]),
            "rbar": float(values[a]),
            "Rbar": float(values[b]),
        }
    else:
        scan.summary = {"tau": 0.0, "rbar": None, "Rbar": None}
    return scan


def _runs(indices: Sequence[int]) -> int:
    """Number of maximal runs when gaps of one cell are bridged."""
    runs = 0
    prev = None
    for k in indices:
        if prev is None or k - prev > 2:
            runs += 1
        prev = k
    return runs


def section_properties(scans: Sequence[AlphaSectionScan]) -> dict:
    """Interval and nesting checks, with one grid cell of slack.

    For each scan: every row (fixed R) and column (fixed r) of members must
    be contiguous up to single-cell gaps.  Across scans sorted by alpha:
    members of a larger-alpha scan must lie within one cell of a member of
    every smaller-alpha scan.
    """
    report = {"interval_ok": True, "nesting_ok": True, "violations": []}
    for s_idx, scan in enumerate(scans):
        n = len(scan.values)
        for i in range(n):
            row = [j for j in range(n) if scan.member[i][j] is True]
            if _runs(row) > 1:
                report["interval_ok"] = False
                report["violations"].append(
                    {"scan": s_idx, "kind": "row", "index": i})
        for j in range(n):
            col = [i for i in range(n) if scan.member[i][j] is True]
            if _runs(col) > 1:
                report["interval_ok"] = False
                report["violations"].append(
                    {"scan": s_idx, "kind": "column", "index": j})
    ordered = sorted(range(len(scans)), key=lambda k: scans[k].alpha)
    for a_pos in range(len(ordered)):
        for b_pos in range(a_pos + 1, len(ordered)):
            small = scans[ordered[a_pos]]
            big = scans[ordered[b_pos]]
            if not np.array_equal(small.values, big.values):
                continue
            for i, j, m in big.cells():
                if not m:
                    continue
                near = any(
                    small.member[ii][jj] is True
                    for ii in range(max(0, i - 1), min(len(small.values), i + 2))
                    for jj in range(max(0, j - 1), min(len(small.values), j + 2)))
                if not near:
                    report["nesting_ok"] = False
                    report["violations"].append(
                        {"scan": ordered[b_pos], "kind": "nesting",
                         "cell": [i, j], "versus": ordered[a_pos]})
    return report


def scan_to_csv(scan: AlphaSectionScan) -> str:
    """`R,r,member` rows for every evaluated grid cell."""
    lines = ["R,r,member"]
    for i, j, m in scan.cells():
        lines.append(f"{float(scan.values[i])!r},{float(scan.values[j])!r},{int(m)}")
    return "\n".join(lines) + "\n"
