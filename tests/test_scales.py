import math

import numpy as np
import pytest

from localhom.scales import (InfeasibleScales, ReachBound, ScaleConstants,
                             SeemlinessBound, SelectedScales,
                             bounded_feasible_eps, f, g, manual_scales,
                             select_bounded, select_manifold, select_strong,
                             strong_coefficients, validate_manual)

S2 = math.sqrt(2.0)
ALL_CC = [ScaleConstants(t=t, s=s, c=c)
          for t in (0, 1) for s in (S2, 2.0) for c in (1.0, None)
          for c in ([s] if c is None else [c])]


def test_constants_validation():
    with pytest.raises(ValueError):
        ScaleConstants(t=2)
    with pytest.raises(ValueError):
        ScaleConstants(s=3.0)
    with pytest.raises(ValueError):
        ScaleConstants(c=1.5)
    assert ScaleConstants(c=1.0).flavor == "cech"
    assert ScaleConstants().flavor == "rips"


def test_g_f_substitution_values():
    eps = 0.3
    cc = ScaleConstants(t=0, c=1.0, s=S2)
    assert g(cc, 0, eps) == pytest.approx(eps)
    assert f(cc, 0, eps) == pytest.approx(2 * eps)
    cc = ScaleConstants(t=1, c=S2)
    assert g(cc, 0, eps) == pytest.approx((S2 + 1) * eps)
    cc = ScaleConstants(t=1, c=2.0, s=2.0)
    assert f(cc, 0.7, 0.2) == pytest.approx(3 * 0.7 + 5 * 0.2)


def test_g_f_negative_rejected():
    cc = ScaleConstants()
    with pytest.raises(ValueError):
        g(cc, -0.1, 0.2)
    with pytest.raises(ValueError):
        f(cc, 0.1, -0.2)


def test_f_equals_g_plus_g1_random_1000():
    rng = np.random.default_rng(0)
    for cc in ALL_CC:
        g1 = ScaleConstants(t=cc.t, s=cc.s, c=1.0)
        for _ in range(1000 // len(ALL_CC) + 1):
            a, b = rng.uniform(0, 5, size=2)
            assert f(cc, a, b) == pytest.approx(g(cc, a, b) + g(g1, a, b),
                                                rel=1e-12, abs=1e-12)


def test_four_scale_identities_random_1000():
    rng = np.random.default_rng(1)
    for cc in ALL_CC:
        c, t = cc.c, cc.t
        for _ in range(1000 // len(ALL_CC) + 1):
            eps = float(rng.uniform(1e-3, 2.0))
            assert g(cc, 0, eps) == pytest.approx((c + t) * eps, rel=1e-12)
            assert g(cc, g(cc, 0, eps), eps) == pytest.approx(
                (c * c + (t + 1) * c + t) * eps, rel=1e-12)
            assert f(cc, 0, eps) == pytest.approx((c + 2 * t + 1) * eps, rel=1e-12)
            assert f(cc, g(cc, 0, eps), eps) == pytest.approx(
                (c * c + (t + 2) * c + 3 * t + 1) * eps, rel=1e-12)


def test_strong_coefficients_values():
    assert strong_coefficients(ScaleConstants(t=0, c=1.0)) == pytest.approx((2, 6))
    b, gm = strong_coefficients(ScaleConstants(t=1, c=S2))
    assert b == pytest.approx(3 + 2 * S2, rel=1e-12)
    assert gm == pytest.approx(9 + 4 * S2, rel=1e-12)
    assert 2 * b + gm == pytest.approx(15 + 8 * S2, rel=1e-12)


def test_select_strong_example():
    cc = ScaleConstants(t=0, c=S2)
    eps = 0.05
    b, _ = strong_coefficients(cc)
    rbar = b * eps
    sel = select_strong(cc, eps, rbar, 2 - rbar)
    assert sel.regime == "strong"
    assert sel.scale1 == pytest.approx(eps)
    assert sel.scale2 == pytest.approx((1 + S2) * 0.05, rel=1e-12)  # 0.12071
    assert sel.scale1 <= sel.scale2 and sel.ball_r <= sel.ball_R


def test_select_strong_infeasible_boundary():
    cc = ScaleConstants(t=0, c=1.0)
    eps = 0.1
    _, gm = strong_coefficients(cc)
    gamma = gm * eps
    with pytest.raises(InfeasibleScales):
        select_strong(cc, eps, 1.0, 1.0 + gamma)     # tau == gamma exactly
    select_strong(cc, eps, 1.0, 1.0 + gamma + 1e-6)  # just above: feasible


def test_select_strong_small_eps_always_feasible():
    cc = ScaleConstants(t=0, c=1.0)
    for eps in (1e-2, 1e-4, 1e-6):
        sel = select_strong(cc, eps, 0.3, 0.9)
        assert sel.ball_r <= sel.ball_R


def test_select_strong_choice_validation():
    cc = ScaleConstants(t=0, c=1.0)
    with pytest.raises(InfeasibleScales):
        select_strong(cc, 0.05, 0.3, 0.9, choice=(0.95, 0.4))  # R' too large


def test_select_bounded_matches_strong_for_m1():
    cc = ScaleConstants(t=1, c=S2)
    eps = 0.004
    sb = SeemlinessBound(M=math.sqrt(3), m=1.0, M0=0.8)
    b, _ = strong_coefficients(cc)
    a = select_bounded(cc, eps, sb)
    bsel = select_strong(cc, eps, sb.M * b * eps, sb.M0)
    assert a.regime == "bounded"
    assert (a.scale1, a.scale2, a.ball_R, a.ball_r) == \
        (bsel.scale1, bsel.scale2, bsel.ball_R, bsel.ball_r)


def test_bounded_feasibility_threshold_closed_form():
    cc = ScaleConstants(t=1, c=S2)
    sb = SeemlinessBound(M=math.sqrt(3), m=1.0, M0=0.8)
    b, gm = strong_coefficients(cc)
    thr = bounded_feasible_eps(cc, sb)
    assert thr == pytest.approx(sb.M0 / (sb.M * b + gm), rel=1e-12)
    select_bounded(cc, thr * 0.999, sb)
    with pytest.raises(InfeasibleScales):
        select_bounded(cc, thr * 1.001, sb)


def test_bounded_feasibility_threshold_bisection():
    cc = ScaleConstants(t=0, c=1.0)
    sb = SeemlinessBound(M=2.0, m=2.0, M0=0.5)
    thr = bounded_feasible_eps(cc, sb)
    b, gm = strong_coefficients(cc)
    assert sb.M * (b * thr) ** sb.m + gm * thr == pytest.approx(sb.M0, rel=1e-9)
    select_bounded(cc, thr * 0.99, sb)
    with pytest.raises(InfeasibleScales):
        select_bounded(cc, thr * 1.01, sb)


def test_bounded_ceiling_too_small():
    cc = ScaleConstants(t=0, c=1.0)
    _, gm = strong_coefficients(cc)
    eps = 0.1
    with pytest.raises(InfeasibleScales):
        select_bounded(cc, eps, SeemlinessBound(M=1.0, m=1.0, M0=gm * eps * 0.5))


def test_select_manifold_acceptance_values():
    cc = ScaleConstants(t=0, c=S2)
    eps = 0.05
    b, gm = strong_coefficients(cc)
    assert 2 * 1.0 / (2 * b + gm) == pytest.approx(2 / (8 + 5 * S2), rel=1e-12)
    sel = select_manifold(cc, eps, ReachBound(nu=1.0), choice=(1.0, 0.5))
    assert sel.regime == "manifold"
    assert sel.scale1 == pytest.approx(0.05)
    assert sel.scale2 == pytest.approx((1 + S2) * 0.05, rel=1e-12)
    assert sel.ball_R == 1.0 and sel.ball_r == 0.5
    assert validate_manual(cc, eps, sel) == []
    # interval endpoints: upper R end and both r ends
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, eps, ReachBound(nu=1.0),
                        choice=(2 - (b + 1) * eps + 1e-9, 0.5))
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, eps, ReachBound(nu=1.0), choice=(1.0, 2 * b * eps))
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, eps, ReachBound(nu=1.0),
                        choice=(1.0, 1.0 - (gm - b) * eps + 1e-9))


def test_select_manifold_eps_infeasible():
    cc = ScaleConstants(t=0, c=S2)
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, 0.14, ReachBound(nu=1.0))
    select_manifold(cc, 0.11, ReachBound(nu=1.0))  # well below 0.13270: feasible


def test_select_manifold_boundary_margin():
    cc = ScaleConstants(t=0, c=S2)
    eps = 0.01
    b, gm = strong_coefficients(cc)
    sel = select_manifold(cc, eps, ReachBound(nu=1.0, boundary_margin=0.5))
    assert sel.regime == "manifold-boundary"
    assert sel.ball_R < 0.5
    assert validate_manual(cc, eps, sel) == []
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, eps,
                        ReachBound(nu=1.0, boundary_margin=(2 * b + gm) * eps))
    with pytest.raises(InfeasibleScales):
        select_manifold(cc, eps, ReachBound(nu=1.0, boundary_margin=2.5))


def test_feasible_selectors_pass_validation_with_no_warnings():
    rng = np.random.default_rng(2)
    for cc in ALL_CC:
        for _ in range(20):
            eps = float(rng.uniform(0.001, 0.01))
            try:
                sel = select_strong(cc, eps, float(rng.uniform(0.1, 0.4)),
                                    float(rng.uniform(0.8, 2.0)))
            except InfeasibleScales:
                continue
            assert validate_manual(cc, eps, sel) == []
            sel2 = select_manifold(cc, eps, ReachBound(nu=1.0))
            assert validate_manual(cc, eps, sel2) == []


def test_manual_calibrated_values_warn_but_run():
    # calibrated-by-hand scales from a real noisy run: they undercut two of
    # the generic windows yet remain usable
    cc = ScaleConstants(t=1, c=S2)
    sel = manual_scales(cc, 0.018, 0.018, 0.06, 0.175, 0.116)
    assert sel.regime == "manual"
    assert len(sel.warnings) == 2
    assert any("scale2" in w for w in sel.warnings)
    assert any("gap" in w for w in sel.warnings)


def test_manual_nesting_hard_error():
    cc = ScaleConstants(t=1, c=S2)
    with pytest.raises(InfeasibleScales):
        manual_scales(cc, 0.018, 0.018, 0.06, 0.116, 0.175)  # b2 > b1
    with pytest.raises(InfeasibleScales):
        SelectedScales(0.06, 0.018, 0.175, 0.116, "manual")  # a1 > a2


@pytest.mark.parametrize("values,message", [
    ((0.0, 0.06, 0.175, 0.116), "scale1 must be positive, got 0.0"),
    ((-0.1, 0.06, 0.175, 0.116), "scale1 must be positive, got -0.1"),
    ((0.018, 0.06, 0.175, -0.1), "ball_r must be >= 0, got -0.1"),
])
def test_selected_scales_reject_what_a_query_rejects(values, message):
    # the rules of complexes._check_levels, so that bad manual scales stop
    # here and not in a selector's arithmetic or in the engine
    with pytest.raises(InfeasibleScales, match=f"^{message}$"):
        SelectedScales(*values, "manual")
    with pytest.raises(InfeasibleScales, match=f"^{message}$"):
        manual_scales(ScaleConstants(t=1, c=S2), 0.018, *values)
    assert SelectedScales(0.018, 0.06, 0.175, 0.0, "manual").ball_r == 0.0


def test_seemliness_reach_validation():
    with pytest.raises(ValueError):
        SeemlinessBound(M=0, m=1, M0=1)
    with pytest.raises(ValueError):
        SeemlinessBound(M=1, m=-1, M0=1)
    with pytest.raises(ValueError):
        ReachBound(nu=0)
    with pytest.raises(ValueError):
        ReachBound(nu=1, boundary_margin=0)


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["nu", "boundary_margin", "M", "m", "M0"])
def test_bounds_reject_non_finite_values_by_name(name, x):
    # a NaN passed the old <= 0 tests and surfaced later as an infeasible
    # scale under another name; inf, a flat stratum's reach, did the same
    values = ({"nu": 1.0, "boundary_margin": 0.5} if name in ("nu", "boundary_margin")
              else {"M": 1.0, "m": 1.0, "M0": 2.0})
    values[name] = x
    bound = ReachBound if "nu" in values else SeemlinessBound
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        bound(**values)


def test_as_dict_roundtrip():
    sel = SelectedScales(0.05, 0.12, 1.0, 0.5, "manifold", ["w"])
    d = sel.as_dict()
    assert d == {"scale1": 0.05, "scale2": 0.12, "ball_R": 1.0,
                 "ball_r": 0.5, "regime": "manifold", "warnings": ["w"]}


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_non_finite_eps_and_scales_rejected(x):
    # a NaN eps once passed every selector's eps > 0 test, and a NaN scale
    # or radius passed SelectedScales' nesting test
    cc = ScaleConstants(t=1, c=S2)
    for select in (lambda eps: select_manifold(cc, eps, ReachBound(nu=1.0)),
                   lambda eps: select_strong(cc, eps, 0.1, 2.0),
                   lambda eps: select_bounded(cc, eps, SeemlinessBound(M=1, m=1, M0=2)),
                   lambda eps: manual_scales(cc, eps, 0.018, 0.06, 0.175, 0.116)):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            select(x)
    for k in range(4):
        values = [0.018, 0.06, 0.175, 0.116]
        values[k] = x
        with pytest.raises(InfeasibleScales, match="must be finite"):
            SelectedScales(*values, "manual")
