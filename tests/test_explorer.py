import numpy as np
import pytest

from localhom import relhom
from localhom.explorer import (AlphaSectionScan, _largest_triangle,
                               scan_alpha_section, scan_to_csv,
                               section_properties)
from localhom.geometry import circle, circle_chord
from localhom.relhom import ImageRankEngine


def _circle_scan(alpha, values, dense_n=400):
    K = circle()
    return scan_alpha_section(K, (1.0, 0.0), alpha, 0.05, values,
                              dense_n=dense_n)


def test_domain_excludes_r_at_most_alpha():
    scan = _circle_scan(0.2, np.linspace(0.1, 1.2, 8))
    for i, row in enumerate(scan.member):
        for j, m in enumerate(row):
            R, r = scan.values[i], scan.values[j]
            if r <= scan.alpha or r > R:
                assert m is None
            else:
                assert m in (True, False)


def test_infeasible_grid_rejected():
    with pytest.raises(ValueError):
        _circle_scan(0.2, [0.05, 0.1, 0.15])
    with pytest.raises(ValueError):
        scan_alpha_section(circle(), (1, 0), 0.01, 0.05, [0.5])  # alpha < eps


def test_circle_scan_has_triangle_and_intervals():
    scan = _circle_scan(0.12, np.linspace(0.2, 1.6, 10))
    assert any(m for _, _, m in scan.cells())
    assert scan.summary["tau"] > 0
    assert scan.summary["rbar"] is not None
    report = section_properties([scan])
    assert report["interval_ok"] and report["nesting_ok"]
    assert scan.dense_hausdorff < scan.alpha / 4


def test_alpha_nesting_on_circle():
    values = np.linspace(0.2, 1.6, 10)
    s1 = _circle_scan(0.10, values)
    s2 = _circle_scan(0.16, values)
    report = section_properties([s1, s2])
    assert report["nesting_ok"], report["violations"]


def test_synthetic_noncontiguous_row_flagged():
    values = np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    n = len(values)
    member = [[None] * n for _ in range(n)]
    # row 7 members at j = 0 and j = 5: gap of 4 cells cannot be bridged
    member[7][0] = True
    member[7][1] = False
    member[7][2] = False
    member[7][3] = False
    member[7][4] = False
    member[7][5] = True
    scan = AlphaSectionScan((1.0, 0.0), 0.2, 0.05, values, member, 100, 0.01)
    report = section_properties([scan])
    assert not report["interval_ok"]
    assert {"scan": 0, "kind": "row", "index": 7} in report["violations"]


def test_synthetic_one_cell_gap_tolerated():
    values = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
    n = len(values)
    member = [[None] * n for _ in range(n)]
    member[4][0] = True
    member[4][1] = False
    member[4][2] = True   # single-cell gap: allowed
    scan = AlphaSectionScan((1.0, 0.0), 0.2, 0.05, values, member, 100, 0.01)
    assert section_properties([scan])["interval_ok"]


def test_largest_triangle_fixture():
    member = [[None, None, None], [True, None, None], [True, True, None]]
    # cells: (1,0),(2,0),(2,1) all True -> triangle a=0..? domain j<=i
    member = [[True, None, None], [True, True, None], [True, True, True]]
    assert _largest_triangle(member) == (0, 2)
    member[1][1] = False
    assert _largest_triangle(member)[1] - _largest_triangle(member)[0] == 0


def test_chord_junction_rbar_grows_with_alpha():
    K = circle_chord()
    x = (-1.0, 0.0)
    values = np.linspace(0.1, 1.0, 10)
    rbars = []
    for alpha in (0.12, 0.2):
        scan = scan_alpha_section(K, x, alpha, 0.05, values, dense_n=400)
        assert scan.summary["rbar"] is not None
        rbars.append(scan.summary["rbar"])
        # empirical lower interval endpoint stays below the sqrt(3)*alpha
        # estimate plus one grid cell of slack
        cell = float(values[1] - values[0])
        assert scan.summary["rbar"] <= np.sqrt(3) * alpha + cell
    assert rbars[1] >= rbars[0]


def test_scan_csv_format():
    scan = _circle_scan(0.2, [0.3, 0.6, 0.9], dense_n=200)
    csv = scan_to_csv(scan)
    lines = csv.strip().split("\n")
    assert lines[0] == "R,r,member"
    assert len(lines) == 1 + sum(1 for _ in scan.cells())
    for line in lines[1:]:
        R, r, m = line.split(",")
        assert float(R) >= float(r) > scan.alpha
        assert m in ("0", "1")


def test_scan_deterministic():
    a = _circle_scan(0.15, [0.3, 0.6, 0.9], dense_n=300)
    b = _circle_scan(0.15, [0.3, 0.6, 0.9], dense_n=300)
    assert a.member == b.member and a.summary == b.summary


def test_chord_scan_builds_one_pair_per_r(monkeypatch):
    # cells run column by column, so the engine reuses its level-2 pair
    # while only R changes: one collapsed level-2 pair per r > alpha (the
    # level-1 pairs, built per query, are not spanning)
    built = []

    class Counted(relhom._CollapsedRipsPair):
        def __init__(self, *args, spanning=False):
            if spanning:
                built.append(args[3])
            super().__init__(*args, spanning=spanning)

    monkeypatch.setattr(relhom, "_CollapsedRipsPair", Counted)
    K, x, alpha, eps = circle_chord(), (-1.0, 0.0), 0.12, 0.05
    values = np.linspace(0.1, 1.0, 10)
    scan = scan_alpha_section(K, x, alpha, eps, values, dense_n=400)
    assert built == [float(r) for r in values if r > alpha]
    assert len(built) == 9
    # the same grid from a fresh engine per cell
    dense, gt = K.even_points(400), K.ground_truth(np.asarray(x)).local_ranks
    for i, j, m in scan.cells():
        eng = ImageRankEngine(dense, (eps, float(values[-1])), (alpha, 0.0))
        ranks = eng.query(x, b1=float(values[i]), b2=float(values[j])).ranks
        assert m == ({d: v for d, v in ranks.items() if v} == gt)
    assert sum(1 for _ in scan.cells()) == 45
