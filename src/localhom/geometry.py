"""Euclidean geometry: samples, analytic stratified shapes, Hausdorff distance.

Shapes are unions of closed-form primitives (circular arcs, line segments,
isolated points).  Each shape knows its strata, can evaluate the distance from
any point to each stratum closure exactly, and reports ground-truth local
homology ranks for points lying on it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

ON_SHAPE_TOL = 1e-12


def distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).sum()))


def sq_dists(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Squared distances from the rows of P, (n, D), to the rows of Q,
    (m, D), as an (n, m) array; to the single point Q, (D,), as (n,).

    The coordinate terms are summed one coordinate at a time, in order,
    which is the order numpy's ``((P[:, None] - Q) ** 2).sum(-1)`` adds
    them in below 8 terms (its pairwise sum unrolls by 8), so both give the
    same bits; at D = 0 or D >= 8 that formula itself is used.  Raises
    ``ValueError`` unless Q's last dimension is D.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if Q.shape[-1:] != P.shape[1:]:
        raise ValueError(f"points have {P.shape[1]} coordinates, query points "
                         f"{Q.shape[-1] if Q.ndim else 0}")
    if not 0 < P.shape[1] < 8:
        return ((P[:, None] - Q) ** 2).sum(-1) if Q.ndim == 2 else ((P - Q) ** 2).sum(-1)
    out = np.subtract.outer(P[:, 0], Q[..., 0]) ** 2
    for k in range(1, P.shape[1]):
        d = np.subtract.outer(P[:, k], Q[..., k])
        d *= d
        out += d
    return out


@dataclass(frozen=True)
class Sample:
    """A finite point sample with its nominal density bound.

    ``noisy`` houses the constant t: noise-free samples have t = 0, noisy
    ones t = 1.  ``true_points`` optionally records, per sample point, the
    generating point on the shape (used for ground-truth association).
    """

    points: np.ndarray          # (n, dim)
    epsilon: float
    noisy: bool
    seed: Optional[int] = None
    true_points: Optional[np.ndarray] = None
    shape_meta: Optional[dict] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("sample must be a nonempty (n, dim) array")
        if not np.isfinite(pts).all():
            raise ValueError("sample coordinates must be finite")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "points", pts)

    @property
    def t(self) -> int:
        return 1 if self.noisy else 0

    def __len__(self) -> int:
        return len(self.points)


def _plane_points(X) -> np.ndarray:
    """X as a float (n, 2) array; ``ValueError`` unless it is a nonempty
    (n, 2) array of finite coordinates."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != 2:
        raise ValueError(f"points must form a nonempty (n, 2) array of plane "
                         f"coordinates, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("point coordinates must be finite")
    return X


def _plane_point(x) -> np.ndarray:
    """The single point x as a (1, 2) array, for the one-row calls."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"a point of the plane has 2 coordinates, got shape {x.shape}")
    return _plane_points(x[None])


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A, (n, 2), with the matching row of B, or
    with B itself when B is one point, (2,).

    A batch of (1, 2) @ (2, 1) products makes numpy take each one through
    the 1-D ``dot`` that ``x @ y`` and ``np.linalg.norm`` use, so every
    entry has the bits of the per-point formula; a plain elementwise
    ``(A * B).sum(-1)`` rounds differently.
    """
    return np.matmul(A[:, None, :], B[..., :, None])[:, 0, 0]


def _norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of V."""
    return np.sqrt(_row_dots(V, V))


@dataclass(frozen=True)
class Stratum:
    """One stratum of a stratified shape.

    kind is one of "point", "arc", "segment".  params:
      point:   (x, y)
      arc:     (cx, cy, radius, theta0, theta1) with theta1 - theta0 <= 2*pi
      segment: (x0, y0, x1, y1)
    ``valence`` (point strata only) counts incident curve branches.

    ``dists`` and ``projections`` are the closed forms, over the rows of an
    (n, 2) array; ``dist`` and ``project`` are their one-row calls.
    """

    sid: int
    height: int
    kind: str
    params: tuple
    valence: int = 0

    def dists(self, X) -> np.ndarray:
        """Distance from each row of X to the closure of this stratum."""
        X = _plane_points(X)
        if self.kind == "point":
            return np.hypot(X[:, 0] - self.params[0], X[:, 1] - self.params[1])
        if self.kind == "segment":
            return _norms(X - self._segment_points(X))
        if self.kind == "arc":
            cx, cy, r = self.params[:3]
            V = X - np.array([cx, cy])
            out = np.abs(_norms(V) - r)
            if self._full_circle():
                return out
            off = ~self._within_angles(V)
            if off.any():
                e0, e1 = self._arc_ends()
                Y = X[off]
                out[off] = np.minimum(_norms(Y - e0), _norms(Y - e1))
            return out
        raise ValueError(f"unknown stratum kind {self.kind!r}")

    def projections(self, X) -> np.ndarray:
        """Nearest point of the stratum closure to each row of X, (n, 2)."""
        X = _plane_points(X)
        if self.kind == "point":
            return np.tile(np.array(self.params, dtype=float), (len(X), 1))
        if self.kind == "segment":
            return self._segment_points(X)
        if self.kind == "arc":
            cx, cy, r = self.params[:3]
            c = np.array([cx, cy])
            V = X - c
            nv = _norms(V)
            full = self._full_circle()
            radial = nv > 0 if full else (nv > 0) & self._within_angles(V)
            out = np.empty_like(X)
            out[radial] = c + V[radial] * (r / nv[radial])[:, None]
            if full:
                out[~radial] = c + np.array([r, 0.0])
            elif not radial.all():
                e0, e1 = self._arc_ends()
                Y = X[~radial]
                nearer0 = _norms(Y - e0) <= _norms(Y - e1)
                out[~radial] = np.where(nearer0[:, None], e0, e1)
            return out
        raise ValueError(f"unknown stratum kind {self.kind!r}")

    def dist(self, x) -> float:
        """Distance from x to the closure of this stratum (closed form)."""
        return float(self.dists(_plane_point(x))[0])

    def project(self, x) -> np.ndarray:
        """Nearest point of the stratum closure to x."""
        return self.projections(_plane_point(x))[0]

    def _segment_points(self, X: np.ndarray) -> np.ndarray:
        """Nearest segment point to each row of X."""
        x0, y0, x1, y1 = self.params
        p0 = np.array([x0, y0])
        d = np.array([x1 - x0, y1 - y0])
        L2 = float(d @ d)
        s = np.zeros(len(X)) if L2 == 0 else np.clip(_row_dots(X - p0, d) / L2, 0.0, 1.0)
        return p0 + s[:, None] * d

    def _full_circle(self) -> bool:
        t0, t1 = self.params[3:]
        return t1 - t0 >= 2 * math.pi - 1e-15

    def _within_angles(self, V: np.ndarray) -> np.ndarray:
        """Whether the angle of each offset V from the centre, normalized
        into [t0, t0 + 2*pi), is at most t1.  ``math.atan2`` is the angle:
        ``np.arctan2`` can differ from it in the last bit."""
        t0, t1 = self.params[3:]
        phi = np.array([math.atan2(vy, vx) for vx, vy in V.tolist()])
        return t0 + np.mod(phi - t0, 2 * math.pi) <= t1

    def _arc_ends(self):
        cx, cy, r, t0, t1 = self.params
        return (np.array([cx + r * math.cos(t0), cy + r * math.sin(t0)]),
                np.array([cx + r * math.cos(t1), cy + r * math.sin(t1)]))


@dataclass(frozen=True)
class GroundTruthLabel:
    stratum_id: int
    local_ranks: dict  # degree -> rank; zero ranks omitted


class StratifiedShape:
    """Analytic stratified subset of the plane with ground-truth local homology.

    ``strata`` are ordered so that the tie-break "nearest stratum = lowest id"
    gives the intended answers (0-strata first, then the chord for the
    circle-chord shape, then arcs).  ``sampling_components`` lists the closed
    curves/segments used for even-arc-length sample generation.
    """

    def __init__(self, kind: str, strata: Sequence[Stratum], sampling_components,
                 reach_info: Optional[float] = None, meta_params: Optional[dict] = None):
        self.kind = kind
        self.strata = list(strata)
        self.sampling_components = list(sampling_components)  # ("circle",c,r) | ("segment",p0,p1)
        self.reach_info = reach_info
        self.meta_params = dict(meta_params or {})

    def dists(self, X):
        """Distance from each row of X to the shape, and the id of the nearest
        stratum, as two (n,) arrays.  A stratum within 1e-12 of the nearest
        distance so far ties with it, and a tie goes to the lower id."""
        X = _plane_points(X)
        best_d = np.full(len(X), math.inf)
        best_sid = np.full(len(X), -1)
        for s in self.strata:
            d = s.dists(X)
            close = (d == best_d) | (np.abs(d - best_d) <= 1e-12)
            take = (d < best_d) & ~close
            tie = close & (s.sid < best_sid)
            best_d = np.where(take, d, np.where(tie, np.minimum(best_d, d), best_d))
            best_sid = np.where(take | tie, s.sid, best_sid)
        return best_d, best_sid

    def projections(self, X):
        """Nearest shape point to each row of X, (n, 2), with the stratum ids
        and distances of ``dists``."""
        X = _plane_points(X)
        d, sid = self.dists(X)
        out = np.empty_like(X)
        for s in self.strata:
            rows = sid == s.sid
            if rows.any():
                out[rows] = s.projections(X[rows])
        return out, sid, d

    def zero_strata_dists(self, X) -> np.ndarray:
        """Distance from each row of X to the nearest 0-stratum (inf if none)."""
        X = _plane_points(X)
        out = np.full(len(X), math.inf)
        for s in self.zero_strata():
            out = np.minimum(out, s.dists(X))
        return out

    def ground_truths(self, X):
        """Local homology ranks at each row of X, which must lie on the shape.

        Interior points of curve strata get rank 1 in degree 1; a k-valent
        junction point gets rank k-1; a free endpoint (valence 1) gets all
        ranks zero.
        """
        X = _plane_points(X)
        d, sid = self.dists(X)
        off = np.flatnonzero(d > ON_SHAPE_TOL)
        if off.size:
            i = off[0]
            raise ValueError(f"point {X[i]} is not on the shape (distance {float(d[i])})")
        out = []
        for k in sid.tolist():
            s = self.strata[k]
            r1 = max(s.valence - 1, 0) if s.kind == "point" else 1
            out.append(GroundTruthLabel(stratum_id=k, local_ranks={1: r1} if r1 > 0 else {}))
        return out

    def dist(self, x):
        """(distance to shape, nearest stratum id); ties go to the lowest id."""
        d, sid = self.dists(_plane_point(x))
        return float(d[0]), int(sid[0])

    def project(self, x):
        """(nearest shape point, stratum id, distance)."""
        proj, sid, d = self.projections(_plane_point(x))
        return proj[0], int(sid[0]), float(d[0])

    def zero_strata(self):
        return [s for s in self.strata if s.height == 0 and s.kind == "point"]

    def dist_to_zero_strata(self, x) -> float:
        return float(self.zero_strata_dists(_plane_point(x))[0])

    def ground_truth(self, x) -> GroundTruthLabel:
        """Local homology ranks at a point of the shape (see ``ground_truths``)."""
        return self.ground_truths(_plane_point(x))[0]

    def component_lengths(self):
        out = []
        for comp in self.sampling_components:
            if comp[0] == "circle":
                out.append(2 * math.pi * comp[2])
            else:
                _, p0, p1 = comp
                out.append(float(np.linalg.norm(np.asarray(p1, float) - np.asarray(p0, float))))
        return out

    def even_points(self, n: int) -> np.ndarray:
        """n points spread over the components proportionally to length.

        Circles use endpoint-free even spacing; segments include both
        endpoints (midpoint gap = L / (2*(m-1)) then dominates d_H).  Each
        component gets at least 2 points, so n below twice the number of
        components raises ``ValueError``.
        """
        lengths = self._sampled_lengths()
        if n < 2 * len(lengths):
            raise ValueError(f"n must be at least {2 * len(lengths)} for this shape "
                             "(2 points per sampling component)")
        total = sum(lengths)
        counts = [max(2, int(round(n * L / total))) for L in lengths]
        # adjust to hit n exactly, preferring the longest components
        order = sorted(range(len(counts)), key=lambda i: -lengths[i])
        k = 0
        while sum(counts) != n:
            i = order[k % len(order)]
            counts[i] += 1 if sum(counts) < n else -1
            if counts[i] < 2:
                counts[i] = 2
            k += 1
        return self._discretize(counts)

    def grid_points(self, per_unit: int) -> np.ndarray:
        """Discretization of the shape with step <= 1/per_unit along each component."""
        return self._discretize([max(2, int(math.ceil(L * per_unit)))
                                 for L in self._sampled_lengths()])

    def _sampled_lengths(self):
        """``component_lengths``; ``ValueError`` for a shape with no sampling
        component, which has neither even points nor a grid."""
        if not self.sampling_components:
            raise ValueError(f"shape {self.kind!r} has no sampling components, "
                             "so no points can be spread over it")
        return self.component_lengths()

    def _discretize(self, counts) -> np.ndarray:
        """counts[i] points on component i: evenly spaced by angle around a
        circle (no repeated endpoint), both ends included on a segment."""
        chunks = []
        for comp, m in zip(self.sampling_components, counts):
            if comp[0] == "circle":
                _, c, r = comp
                th = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
                chunks.append(np.c_[c[0] + r * np.cos(th), c[1] + r * np.sin(th)])
            else:
                _, p0, p1 = comp
                p0 = np.asarray(p0, float)
                p1 = np.asarray(p1, float)
                ss = np.linspace(0.0, 1.0, m)[:, None]
                chunks.append(p0 + ss * (p1 - p0))
        return np.vstack(chunks)

    def meta(self) -> dict:
        out = {"kind": self.kind}
        out.update(self.meta_params)
        return out


def circle(radius: float = 1.0) -> StratifiedShape:
    if not 0 < radius < math.inf:
        raise ValueError(f"circle radius must be positive and finite, got {radius}")
    s = Stratum(0, 0, "arc", (0.0, 0.0, radius, 0.0, 2 * math.pi))
    return StratifiedShape("circle", [s], [("circle", (0.0, 0.0), radius)],
                           reach_info=radius, meta_params={"radius": radius})


def segment(p0=(0.0, 0.0), p1=(1.0, 0.0)) -> StratifiedShape:
    p0 = tuple(float(v) for v in p0)
    p1 = tuple(float(v) for v in p1)
    if p0 == p1:
        raise ValueError(f"segment endpoints coincide at {list(p0)}")
    L = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    strata = [
        Stratum(0, 0, "point", p0, valence=1),
        Stratum(1, 0, "point", p1, valence=1),
        Stratum(2, 1, "segment", (p0[0], p0[1], p1[0], p1[1])),
    ]
    return StratifiedShape("segment", strata, [("segment", p0, p1)],
                           reach_info=L / 2.0,
                           meta_params={"p0": list(p0), "p1": list(p1)})


def circle_chord() -> StratifiedShape:
    """Unit circle plus the horizontal diameter.

    Strata: the two junction points (+-1, 0) where three branches meet, the
    open chord, and the two open arcs.  The chord precedes the arcs so that
    equidistant interior points resolve to the chord.
    """
    strata = [
        Stratum(0, 0, "point", (-1.0, 0.0), valence=3),
        Stratum(1, 0, "point", (1.0, 0.0), valence=3),
        Stratum(2, 1, "segment", (-1.0, 0.0, 1.0, 0.0)),
        Stratum(3, 1, "arc", (0.0, 0.0, 1.0, 0.0, math.pi)),
        Stratum(4, 1, "arc", (0.0, 0.0, 1.0, math.pi, 2 * math.pi)),
    ]
    comps = [("circle", (0.0, 0.0), 1.0), ("segment", (-1.0, 0.0), (1.0, 0.0))]
    return StratifiedShape("circle-chord", strata, comps)


_SHAPE_BUILDERS = {
    "circle": circle,
    "circle-chord": circle_chord,
    "segment": segment,
}


def make_shape(kind: str, **kwargs) -> StratifiedShape:
    try:
        builder = _SHAPE_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unsupported shape kind {kind!r}") from None
    return builder(**kwargs)


def shape_from_meta(meta: dict) -> StratifiedShape:
    """Rebuild an analytic shape from a sample's sidecar metadata."""
    kwargs = {k: v for k, v in meta.items() if k in ("radius", "p0", "p1")}
    return make_shape(meta["kind"], **kwargs)


class HausdorffResult(NamedTuple):
    value: float
    error_bound: float


def dist_to_shape(x, shape: StratifiedShape):
    """Exact distance from x to the shape and the id of the nearest stratum."""
    return shape.dist(x)


def hausdorff_grid(eps: float) -> int:
    """Grid points per unit length with which to verify an eps-sample: the
    discretization bound 1/(2 grid) stays at or below eps/16."""
    return max(64, int(math.ceil(8.0 / eps)))


def hausdorff(points: np.ndarray, shape: StratifiedShape, grid: int = 512) -> HausdorffResult:
    """Hausdorff distance between a point set and a shape.

    The sample-to-shape direction is exact; the shape-to-sample direction is
    evaluated on an analytic discretization with ``grid`` points per unit
    length, so the reported value may undershoot the true supremum by at most
    ``error_bound`` (half the discretization step).
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    pts = _plane_points(points)
    d_ps = float(shape.dists(pts)[0].max())
    d_sp = math.sqrt(_max_min_sq_dist(shape.grid_points(grid), pts))
    step = 1.0 / grid
    return HausdorffResult(max(d_ps, d_sp), step / 2.0)


def _max_min_sq_dist(g: np.ndarray, pts: np.ndarray, block: int = 64) -> float:
    """Max over the rows of g of the min over the rows of pts of ``sq_dists``.

    g runs along the shape, so a block of consecutive rows is compact.  A
    block compares its rows only with the sample points in its bounding box
    widened by R, the square root of the running maximum, plus a rounding
    margin: a point outside that box is farther than R from every row of the
    block.  While some row's minimum over those candidates exceeds R, R
    widens to that minimum and the candidates are taken again; a box with no
    candidates takes the whole sample.  Every minimum that can raise the
    maximum is then one over all points within R of its row, and each
    candidate distance is the entry of ``sq_dists`` itself, so the result
    has the bits of the unpruned scan.
    """
    px, py = pts[:, 0], pts[:, 1]
    slack = 1e-9 * (1.0 + max(float(np.abs(pts).max()), float(np.abs(g).max())))
    best = 0.0
    for lo in range(0, len(g), block):
        G = g[lo:lo + block]
        (x0, y0), (x1, y1) = G.min(axis=0), G.max(axis=0)
        r2 = best
        while True:
            rad = math.sqrt(r2) + slack
            near = np.flatnonzero((px >= x0 - rad) & (px <= x1 + rad)
                                  & (py >= y0 - rad) & (py <= y1 + rad))
            m = float(sq_dists(G, pts[near] if near.size else pts).min(axis=1).max())
            if m <= r2 or not near.size:
                break
            r2 = m
        best = max(best, m)
    return best


def generate_sample(shape: StratifiedShape, eps: float, n: int,
                    noise: float = 0.0, seed: int = 0) -> Sample:
    """Deterministic epsilon-sample of a shape, verified after generation.

    ``noise`` is the radius of the uniform closed disc added to each point,
    >= 0 and finite (0 means noise-free).  Raises if the verified Hausdorff
    distance (value plus discretization bound) is not below eps.
    """
    return _generate_verified(shape, eps, n, noise, seed)[0]


def _generate_verified(shape: StratifiedShape, eps: float, n: int, noise: float,
                       seed: int) -> Tuple[Sample, HausdorffResult]:
    """``generate_sample`` and the Hausdorff distance that verified it."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be >= 0 and finite, got {noise}")
    base = shape.even_points(n)
    if noise > 0:
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0.0, 2 * math.pi, size=n)
        rad = noise * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        pts = base + np.c_[rad * np.cos(ang), rad * np.sin(ang)]
    else:
        pts = base.copy()
    hd = hausdorff(pts, shape, grid=hausdorff_grid(eps))
    if hd.value + hd.error_bound >= eps:
        raise ValueError(
            f"generated sample fails the epsilon bound: d_H = {hd.value:.6g} "
            f"(+{hd.error_bound:.2g} grid bound) >= eps = {eps:.6g}; increase n")
    meta = shape.meta()
    meta.update({"n": n, "noise": noise})
    return Sample(points=pts, epsilon=eps, noisy=noise > 0, seed=seed,
                  true_points=base if noise > 0 else None, shape_meta=meta), hd


def ground_truth(shape: StratifiedShape, x) -> GroundTruthLabel:
    return shape.ground_truth(x)


# ---------------------------------------------------------------------------
# CSV / sidecar-JSON persistence

def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def save_sample_csv(sample: Sample, path) -> None:
    path = Path(path)
    dim = sample.points.shape[1]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(dim)])
        for row in sample.points:
            w.writerow([repr(float(v)) for v in row])
    meta = {
        "epsilon": sample.epsilon,
        "noisy": sample.noisy,
        "seed": sample.seed,
        "shape": sample.shape_meta,
    }
    if sample.true_points is not None:
        meta["true_points"] = [[float(v) for v in p] for p in sample.true_points]
    with sidecar_path(path).open("w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_sample_csv(path, epsilon: Optional[float] = None) -> Sample:
    path = Path(path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    pts = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    meta = {}
    sp = sidecar_path(path)
    if sp.exists():
        with sp.open() as fh:
            meta = json.load(fh)
    eps = epsilon if epsilon is not None else meta.get("epsilon")
    if eps is None:
        raise ValueError("epsilon not given and no sidecar metadata found")
    tp = meta.get("true_points")
    return Sample(points=pts, epsilon=float(eps), noisy=bool(meta.get("noisy", False)),
                  seed=meta.get("seed"),
                  true_points=np.asarray(tp, float) if tp else None,
                  shape_meta=meta.get("shape"))
