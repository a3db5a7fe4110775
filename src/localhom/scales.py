"""Scale arithmetic and scale-selection regimes.

The inference pipeline needs four numbers: two complex scales (a1 <= a2) and
two deleted-ball radii (b1 >= b2).  Selectors derive them from sample density
eps plus regularity data (interval bounds, a power-law bound on the lower
interval endpoint, or the reach of a manifold).  Manual values are accepted
with advisory validation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

SQRT2 = math.sqrt(2.0)


class InfeasibleScales(ValueError):
    """Raised when a selection regime has an empty admissible window."""


@dataclass(frozen=True)
class ScaleConstants:
    """The constants (t, s, c) driving all scale formulas.

    t = 1 for noisy samples, 0 for noise-free; s is the Rips/Cech
    interleaving constant (sqrt(2) in Euclidean space, 2 in general);
    c = 1 selects the Cech pipeline, c = s the Rips pipeline.
    """

    t: int = 0
    s: float = SQRT2
    c: float = SQRT2

    def __post_init__(self):
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if not (math.isclose(self.s, SQRT2) or self.s == 2):
            raise ValueError("s must be sqrt(2) or 2")
        if not (self.c == 1 or math.isclose(self.c, self.s)):
            raise ValueError("c must be 1 or s")

    @property
    def flavor(self) -> str:
        return "cech" if self.c == 1 else "rips"


def g(cc: ScaleConstants, a: float, b: float) -> float:
    """g_c(a, b) = c*a + (c + t)*b."""
    if a < 0 or b < 0:
        raise ValueError("g needs a, b >= 0")
    return cc.c * a + (cc.c + cc.t) * b


def f(cc: ScaleConstants, a: float, b: float) -> float:
    """f_c(a, b) = (1 + c)*a + (1 + c + 2t)*b; equals g_c(a,b) + g_1(a,b)."""
    if a < 0 or b < 0:
        raise ValueError("f needs a, b >= 0")
    return (1 + cc.c) * a + (1 + cc.c + 2 * cc.t) * b


def strong_coefficients(cc: ScaleConstants) -> Tuple[float, float]:
    """Dimensionless coefficients (beta/eps, gamma/eps) of the strong regime."""
    c, t = cc.c, cc.t
    beta = c * c + (t + 1) * c + t
    gamma = c * c + (t + 3) * c + 5 * t + 2
    return beta, gamma


@dataclass(frozen=True)
class SeemlinessBound:
    """Power-law bound rbar(beta) <= M * beta**m plus the measured ceiling M0."""

    M: float
    m: float
    M0: float

    def __post_init__(self):
        _check_positive(M=self.M, m=self.m, M0=self.M0)


@dataclass(frozen=True)
class ReachBound:
    """Reach nu of a manifold shape; optional boundary margin w for shapes
    with boundary (points farther than w from the boundary get the interior
    guarantee, requiring the ball radius R < w)."""

    nu: float
    boundary_margin: Optional[float] = None

    def __post_init__(self):
        _check_positive(nu=self.nu)
        if self.boundary_margin is not None:
            _check_positive(boundary_margin=self.boundary_margin)


@dataclass
class SelectedScales:
    scale1: float           # a1, level-1 complex scale
    scale2: float           # a2, level-2 complex scale
    ball_R: float           # b1, level-1 deleted-ball radius
    ball_r: float           # b2, level-2 deleted-ball radius
    regime: str
    warnings: List[str] = field(default_factory=list)

    def __post_init__(self):
        values = (self.scale1, self.scale2, self.ball_R, self.ball_r)
        if not all(map(math.isfinite, values)):
            raise InfeasibleScales(f"scales and ball radii must be finite, got {values}")
        if self.scale1 > self.scale2 or self.ball_r > self.ball_R:
            raise InfeasibleScales(
                f"nesting violated: a1={self.scale1} a2={self.scale2} "
                f"b1={self.ball_R} b2={self.ball_r}")

    def as_dict(self) -> dict:
        return {"scale1": self.scale1, "scale2": self.scale2,
                "ball_R": self.ball_R, "ball_r": self.ball_r,
                "regime": self.regime, "warnings": list(self.warnings)}


def _check_positive(**values: float) -> None:
    """Raises ``ValueError``, under its name, for the first of ``values``
    that is not positive and finite (so for NaN too)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _pick(lo: float, hi: float, value: Optional[float], what: str) -> float:
    if lo >= hi:
        raise InfeasibleScales(f"empty interval for {what}: ({lo:.6g}, {hi:.6g})")
    if value is None:
        return 0.5 * (lo + hi)
    if not (lo < value < hi):
        raise InfeasibleScales(
            f"{what}={value:.6g} outside admissible interval ({lo:.6g}, {hi:.6g})")
    return value


def select_strong(cc: ScaleConstants, eps: float, rbar_beta: float,
                  Rbar_beta: float, choice: Optional[Tuple[float, float]] = None
                  ) -> SelectedScales:
    """Scales for the strong regime from the interval (rbar, Rbar) at beta.

    Requires the interval length tau = Rbar - rbar to exceed gamma; picks
    R' and r' at interval midpoints unless choice=(R', r') is given, then
    returns a1 = eps, a2 = (1+c+t)*eps, b1 = R' - (1+t)*eps, b2 = r' + beta.
    """
    _check_positive(eps=eps)
    bcoef, gcoef = strong_coefficients(cc)
    beta, gamma = bcoef * eps, gcoef * eps
    tau = Rbar_beta - rbar_beta
    if tau <= gamma:
        raise InfeasibleScales(
            f"interval length tau={tau:.6g} must exceed gamma={gamma:.6g} "
            f"(deficit {gamma - tau:.6g})")
    Rp = _pick(rbar_beta + gamma, Rbar_beta, choice[0] if choice else None, "R'")
    rp = _pick(rbar_beta, Rp - gamma, choice[1] if choice else None, "r'")
    return SelectedScales(eps, (1 + cc.c + cc.t) * eps,
                          Rp - (1 + cc.t) * eps, rp + beta, "strong")


def select_bounded(cc: ScaleConstants, eps: float, sb: SeemlinessBound,
                   choice: Optional[Tuple[float, float]] = None) -> SelectedScales:
    """Strong regime specialized to rbar(beta) <= M*beta**m, Rbar = M0."""
    _check_positive(eps=eps)
    bcoef, gcoef = strong_coefficients(cc)
    rbar = sb.M * (bcoef * eps) ** sb.m
    if rbar + gcoef * eps >= sb.M0:
        raise InfeasibleScales(
            f"M*beta^m + gamma = {rbar + gcoef * eps:.6g} must stay below "
            f"M0 = {sb.M0:.6g}")
    out = select_strong(cc, eps, rbar, sb.M0, choice)
    out.regime = "bounded"
    return out


def bounded_feasible_eps(cc: ScaleConstants, sb: SeemlinessBound) -> float:
    """Largest eps below which select_bounded is feasible (m = 1 closed form;
    otherwise solved by bisection)."""
    bcoef, gcoef = strong_coefficients(cc)
    if sb.m == 1:
        return sb.M0 / (sb.M * bcoef + gcoef)
    lo, hi = 0.0, sb.M0 / gcoef
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sb.M * (bcoef * mid) ** sb.m + gcoef * mid < sb.M0:
            lo = mid
        else:
            hi = mid
    return lo


def select_manifold(cc: ScaleConstants, eps: float, rb: ReachBound,
                    choice: Optional[Tuple[float, float]] = None) -> SelectedScales:
    """Reach-based scales for (boundaryless or boundary-margin) manifolds.

    Feasible when eps < 2*nu / (2*beta + gamma); then
    R in ((beta+gamma-t-1)*eps, 2*nu - (beta+t+1)*eps) and
    r in (2*beta*eps, R - (gamma-beta)*eps), with R < w additionally imposed
    when a boundary margin w is supplied.  choice=(R, r) overrides the
    midpoint default.
    """
    _check_positive(eps=eps)
    bcoef, gcoef = strong_coefficients(cc)
    t = cc.t
    bound = 2 * rb.nu / (2 * bcoef + gcoef)
    if eps >= bound:
        raise InfeasibleScales(
            f"eps={eps:.6g} must stay below 2*nu/(2*beta+gamma)={bound:.6g}")
    R_lo = (bcoef + gcoef - t - 1) * eps
    R_hi = 2 * rb.nu - (bcoef + t + 1) * eps
    if rb.boundary_margin is not None:
        w = rb.boundary_margin
        if not ((2 * bcoef + gcoef) * eps < w < 2 * rb.nu):
            raise InfeasibleScales(
                f"boundary margin w={w:.6g} outside "
                f"({(2 * bcoef + gcoef) * eps:.6g}, {2 * rb.nu:.6g})")
        R_hi = min(R_hi, w)
    R = _pick(R_lo, R_hi, choice[0] if choice else None, "R")
    r = _pick(2 * bcoef * eps, R - (gcoef - bcoef) * eps,
              choice[1] if choice else None, "r")
    regime = "manifold-boundary" if rb.boundary_margin is not None else "manifold"
    return SelectedScales(eps, (1 + cc.c + cc.t) * eps, R, r, regime)


def validate_manual(cc: ScaleConstants, eps: float,
                    scales: SelectedScales) -> List[str]:
    """Advisory checks of manually chosen scales against the theory windows.

    Broken nesting is a hard error; everything else only warns, since scales
    tuned by hand (or taken from a calibrated experiment) may undercut the
    generic windows and still work.  All feasible-selector outputs pass with
    zero warnings.
    """
    if scales.ball_r > scales.ball_R or scales.scale1 > scales.scale2:
        raise InfeasibleScales("nesting violated (a1 <= a2, b2 <= b1 required)")
    tol = 1e-9
    bcoef, gcoef = strong_coefficients(cc)
    t = cc.t
    warnings: List[str] = []
    need_a2 = (1 + cc.c + t) * eps
    if scales.scale2 < need_a2 - tol:
        warnings.append(
            f"scale2={scales.scale2:.6g} below the strong-regime level "
            f"(1+c+t)*eps={need_a2:.6g} (deficit {need_a2 - scales.scale2:.6g})")
    need_gap = (gcoef - bcoef - (1 + t)) * eps
    gap = scales.ball_R - scales.ball_r
    if gap <= need_gap + tol:
        warnings.append(
            f"ball gap b1-b2={gap:.6g} at or below the generic window "
            f"(gamma-beta-1-t)*eps={need_gap:.6g} (deficit {need_gap - gap:.6g})")
    need_R = f(cc, scales.scale1, eps)
    if scales.ball_R <= need_R + tol:
        warnings.append(
            f"ball_R={scales.ball_R:.6g} at or below the interleaving "
            f"threshold f_c(scale1, eps)={need_R:.6g} "
            f"(deficit {need_R - scales.ball_R:.6g})")
    return warnings


def manual_scales(cc: ScaleConstants, eps: float, scale1: float, scale2: float,
                  ball_R: float, ball_r: float) -> SelectedScales:
    """Wrap manual values as SelectedScales with advisory warnings attached."""
    _check_positive(eps=eps)
    out = SelectedScales(scale1, scale2, ball_R, ball_r, "manual")
    out.warnings = validate_manual(cc, eps, out)
    return out
