import math

import numpy as np
import pytest

from localhom.geometry import (Sample, circle, circle_chord, generate_sample,
                               segment)
from localhom.pipeline import (DEFAULT_W0_GRID, _pair_decisions, classify,
                               group_strata, infer_all, label_of, make_engine)
from localhom.relhom import HomologySignature, ImageRankEngine, _subspaces_equal
from localhom.scales import (ReachBound, ScaleConstants, SelectedScales,
                             manual_scales, select_manifold)

S2 = math.sqrt(2.0)


def _circle_setup(n=70, eps=0.05):
    K = circle()
    P = generate_sample(K, eps, n)
    cc = ScaleConstants(t=0, c=S2)
    scales = select_manifold(cc, eps, ReachBound(nu=1.0), choice=(1.0, 0.5))
    return K, P, cc, scales


def test_label_map():
    assert label_of(HomologySignature({0: 0, 1: 0}, "d")) == "boundary"
    assert label_of(HomologySignature({0: 0, 1: 1}, "d")) == "rank1"
    assert label_of(HomologySignature({0: 0, 1: 2}, "d")) == "rank2"
    assert label_of(HomologySignature({0: 1, 1: 1}, "d")) == "other(0:1,1:1)"
    assert label_of(HomologySignature({0: 0, 1: 3}, "d")) == "other(1:3)"


def test_circle_all_rank1_and_perfect_accuracy():
    K, P, cc, scales = _circle_setup()
    results = infer_all(P, scales, cc)
    assert all(r.signature.nonzero() == {1: 1} for r in results)
    report = classify(P, results, K, scales)
    assert report.overall_accuracy == 1.0
    assert all(row["acc"] == 1.0 for row in report.by_w0 if row["n"])


def test_permutation_equivariance():
    K, P, cc, scales = _circle_setup()
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(P))
    P2 = Sample(points=P.points[perm], epsilon=P.epsilon, noisy=P.noisy,
                seed=P.seed, shape_meta=P.shape_meta)
    r1 = infer_all(P, scales, cc)
    r2 = infer_all(P2, scales, cc)
    for new_i, old_i in enumerate(perm):
        assert r2[new_i].signature.ranks == r1[old_i].signature.ranks


def test_shared_engine_matches_sequential():
    K, P, cc, scales = _circle_setup()
    eng = make_engine(P, scales, cc)
    batch = infer_all(P, scales, cc, engine=eng)
    seq = infer_all(P, scales, cc)
    assert [r.signature.ranks for r in batch] == \
        [r.signature.ranks for r in seq]
    assert [r.label for r in batch] == [r.label for r in seq]


def test_segment_boundary_signature():
    K = segment((0.0, 0.0), (1.0, 0.0))
    eps = 0.01
    P = generate_sample(K, eps, 120)
    cc = ScaleConstants(t=0, c=S2)
    scales = select_manifold(
        cc, eps, ReachBound(nu=1.0, boundary_margin=0.3), choice=(0.25, 0.12))
    results = infer_all(P, scales, cc)
    for r in results:
        x = P.points[r.index, 0]
        if min(x, 1 - x) < eps:
            assert r.signature.nonzero() == {}, (x, r.signature.ranks)
        elif min(x, 1 - x) > scales.ball_R:
            assert r.signature.nonzero() == {1: 1}, (x, r.signature.ranks)


def test_classify_report_schema():
    K, P, cc, scales = _circle_setup()
    report = classify(P, infer_all(P, scales, cc), K, scales)
    d = report.as_dict()
    assert set(d) == {"sample", "scales", "points", "accuracy"}
    assert len(d["points"]) == 70
    pt = d["points"][0]
    assert set(pt) == {"i", "coords", "ranks", "label", "nearest_stratum",
                       "dist_to_0strata", "correct"}
    assert pt["ranks"] == {"0": 0, "1": 1}
    assert [row["w0"] for row in d["accuracy"]["by_w0"]] == list(DEFAULT_W0_GRID)
    assert 0.0 <= d["accuracy"]["overall"] <= 1.0


def test_classify_empty_sweep():
    K, P, cc, scales = _circle_setup()
    report = classify(P, infer_all(P, scales, cc), K, scales, w0_grid=())
    assert report.by_w0 == [] and report.overall_accuracy == 1.0


def test_group_strata_circle_single_group():
    K, P, cc, scales = _circle_setup()
    groups = group_strata(P, scales, cc)
    assert groups == [list(range(len(P)))]


def test_group_strata_all_singletons_when_eps_tiny():
    K = circle()
    P0 = generate_sample(K, 0.05, 70)
    # re-tag the sample with an epsilon below half the min pairwise distance
    P = Sample(points=P0.points, epsilon=0.01, noisy=False, seed=None,
               shape_meta=P0.shape_meta)
    cc = ScaleConstants(t=0, c=S2)
    scales = SelectedScales(0.05, 0.1207, 1.0, 0.5, "manual")
    groups = group_strata(P, scales, cc)
    assert groups == [[i] for i in range(len(P))]


# Close pairs of the widened circle-with-chord sample below whose images
# differ; on the chord, points three apart see different junction sides.
CHORD_REJECTED = [
    (0, 116), (1, 116), (38, 41), (44, 94), (45, 94), (46, 94), (47, 94),
    (90, 116), (91, 94)] + [(i, i + 3) for i in range(92, 113)]


@pytest.mark.parametrize("q", [2, 3])
def test_group_strata_pair_decisions_pinned(q):
    # 120 points 0.05-dense on the circle with a chord, tagged eps = 0.12 so
    # that pairs across a junction are compared; decisions recorded with the
    # global level-2 basis, which the collapsed pair must reproduce
    P0 = generate_sample(circle_chord(), 0.05, 120, seed=3)
    P = Sample(points=P0.points, epsilon=0.12, noisy=False, seed=None,
               shape_meta=P0.shape_meta)
    cc = ScaleConstants(t=1, c=S2)
    scales = manual_scales(cc, 0.05, 0.05, 0.165, 0.485, 0.32)
    decisions = _pair_decisions(P, make_engine(P, scales, cc, q), q, 1)
    assert len(decisions) == 400
    assert [(i, j) for i, j, equal in decisions if not equal] == CHORD_REJECTED


@pytest.mark.parametrize("q,lmax", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_subspaces_equal_without_cycles(q, lmax):
    # a segment whose level-1 edges join neighbours only: the endpoint's
    # level-1 pair has no relative 1-cycle, an interior point's has one,
    # which survives into its level-2 pair; with lmax 2 the level-2 pair has
    # tetrahedra, so its triangle boundaries are dependent
    pts = np.c_[np.arange(33) / 32, np.zeros(33)]
    eng = ImageRankEngine(pts, (1 / 64, 0.1), (3 / 64, 0.1), q=q, lmax=lmax)
    end = eng.query_index(0, keep_detail=True)
    mid = eng.query_index(16, keep_detail=True)
    assert end.ranks[1] == 0 and mid.ranks[1] == 1
    assert end.detail[1] is None and mid.detail[1] is not None
    # no cycles pushed into the middle's pair: the zero subspace, not its image
    assert not _subspaces_equal(end.detail, mid.detail, 1, q)
    # the endpoint's pair holds no cycles of its own: nothing to compare
    assert _subspaces_equal(mid.detail, end.detail, 1, q)
    assert _subspaces_equal(mid.detail, mid.detail, 1, q)
