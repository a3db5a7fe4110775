"""Whole-sample local homology inference, scoring, and strata grouping.

One image-rank query is issued per sample point; labels come from the
degree-1 rank (curve shapes): 0 -> "boundary", 1 -> "rank1", 2 -> "rank2",
anything else -> "other(...)".  Scoring compares each point's signature with
the analytic local homology at its associated shape point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .geometry import Sample, StratifiedShape, sq_dists
from .relhom import HomologySignature, ImageRankEngine
from .scales import ScaleConstants, SelectedScales

DEFAULT_W0_GRID = tuple(round(0.05 * k, 2) for k in range(11))  # 0, 0.05, ..., 0.5


def label_of(sig: HomologySignature) -> str:
    """Fixed signature -> label map (curve shapes; driven by degree 1)."""
    nz = sig.nonzero()
    r1 = sig.rank(1)
    if set(nz) <= {1}:
        if r1 == 0:
            return "boundary"
        if r1 == 1:
            return "rank1"
        if r1 == 2:
            return "rank2"
    return "other(" + ",".join(f"{d}:{r}" for d, r in sorted(nz.items())) + ")"


@dataclass
class PointResult:
    index: int
    signature: HomologySignature
    label: str
    nearest_stratum: Optional[int] = None
    dist_to_0strata: Optional[float] = None
    correct: Optional[bool] = None


@dataclass
class RunReport:
    sample_meta: dict
    scales: SelectedScales
    points: List[PointResult]
    coords: np.ndarray
    overall_accuracy: Optional[float] = None
    by_w0: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        pts = []
        for r in self.points:
            pts.append({
                "i": r.index,
                "coords": [float(v) for v in self.coords[r.index]],
                "ranks": {str(d): int(v) for d, v in sorted(r.signature.ranks.items())},
                "label": r.label,
                "nearest_stratum": r.nearest_stratum,
                "dist_to_0strata": r.dist_to_0strata,
                "correct": r.correct,
            })
        out = {
            "sample": self.sample_meta,
            "scales": self.scales.as_dict(),
            "points": pts,
            "accuracy": {"overall": self.overall_accuracy, "by_w0": self.by_w0},
        }
        return out


def make_engine(P: Sample, scales: SelectedScales, cc: ScaleConstants,
                q: int = 2, lmax: int = 1) -> ImageRankEngine:
    return ImageRankEngine(P.points, (scales.scale1, scales.ball_R),
                           (scales.scale2, scales.ball_r),
                           flavor=cc.flavor, q=q, lmax=lmax)


def infer_all(P: Sample, scales: SelectedScales, cc: ScaleConstants,
              q: int = 2, lmax: int = 1,
              engine: Optional[ImageRankEngine] = None) -> List[PointResult]:
    """Image-rank signature at every sample point (level 1 -> level 2)."""
    eng = engine or make_engine(P, scales, cc, q, lmax)
    out = []
    for i in range(len(P)):
        res = eng.query_index(i)
        sig = HomologySignature(res.ranks, method="direct")
        out.append(PointResult(i, sig, label_of(sig)))
    return out


def check_on_shape(P: Sample, K: StratifiedShape) -> None:
    """Raises ``ValueError`` unless K gives a ground truth at every recorded
    generating point of P, as ``classify`` needs; a sample generated on
    another shape fails."""
    for i, x in enumerate(P.true_points if P.true_points is not None else ()):
        try:
            K.ground_truth(x)
        except ValueError as exc:
            raise ValueError(f"sample point {i}: {exc}; the sample was generated "
                             f"on another shape than {K.kind}") from None


def classify(P: Sample, results: Sequence[PointResult], K: StratifiedShape,
             scales: SelectedScales,
             w0_grid: Sequence[float] = DEFAULT_W0_GRID) -> RunReport:
    """Score each signature against the analytic local homology of the shape.

    The shape point associated to a sample point is the recorded generating
    point for generated noisy samples, else the nearest shape point.  The
    restricted-accuracy sweep keeps only points at distance >= w0 from every
    0-height stratum.
    """
    results = list(results)
    n_ok = 0
    for r in results:
        p = P.points[r.index]
        if P.true_points is not None:
            x = P.true_points[r.index]
        else:
            x, _, _ = K.project(p)
        gt = K.ground_truth(x)
        _, sid = K.dist(x)
        r.nearest_stratum = sid
        r.dist_to_0strata = float(min(K.dist_to_zero_strata(x), 1e300))
        r.correct = r.signature.nonzero() == gt.local_ranks
        n_ok += r.correct
    report = RunReport(sample_meta=_sample_meta(P), scales=scales,
                       points=results, coords=P.points,
                       overall_accuracy=n_ok / len(results) if results else None)
    for w0 in w0_grid:
        sel = [r for r in results if r.dist_to_0strata >= w0]
        acc = (sum(r.correct for r in sel) / len(sel)) if sel else None
        report.by_w0.append({"w0": float(w0), "acc": acc, "n": len(sel)})
    return report


def _sample_meta(P: Sample) -> dict:
    return {"n": len(P), "epsilon": P.epsilon, "noisy": P.noisy,
            "seed": P.seed, "shape": P.shape_meta}


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def group_strata(P: Sample, scales: SelectedScales, cc: ScaleConstants,
                 q: int = 2, lmax: int = 1) -> List[List[int]]:
    """Strata grouping: the image-rank signature of every point
    (``infer_all``), then transitively merge sample points closer than
    2*eps whose signatures are equal.

    Points of one stratum, away from the others, share the local homology
    of that stratum, so a chain of close points with equal signatures stays
    on it (compare Bendich, Wang & Mukherjee, "Local homology transfer and
    stratification learning", SODA 2012).  Where the signature changes, as
    near a junction, the points around it form groups of their own.  The
    groups are an empirical reading, not a certified stratification.
    """
    results = infer_all(P, scales, cc, q, lmax)
    n = len(P)
    uf = _UnionFind(n)
    thr2 = (2 * P.epsilon) ** 2
    pts = P.points
    for i in range(n):
        for j in np.flatnonzero(sq_dists(pts[i + 1:], pts[i]) < thr2).tolist():
            j += i + 1
            if results[j].signature.ranks == results[i].signature.ranks:
                uf.union(i, j)
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [sorted(v) for _, v in sorted(groups.items())]
