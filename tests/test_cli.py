import json
import math
from pathlib import Path

import pytest

from localhom import cli
from localhom.cli import main
from localhom.geometry import circle_chord, hausdorff_grid, load_sample_csv
from localhom.relhom import HomologySignature, ImageRankEngine


def _generate_circle(tmp_path, n=70, eps=0.05):
    out = tmp_path / "circle.csv"
    rc = main(["generate", "--shape", "circle", "--eps", str(eps),
               "--n", str(n), "-o", str(out)])
    assert rc == 0
    return out


def test_generate_writes_sample_and_sidecar(tmp_path, capsys):
    out = _generate_circle(tmp_path)
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 70 and blob["noisy"] is False
    assert blob["hausdorff"] + blob["hausdorff_error_bound"] < 0.05
    assert out.exists() and out.with_suffix(".meta.json").exists()


def test_generate_measures_the_sample_once(tmp_path, monkeypatch, capsys):
    # the printed Hausdorff distance is the one that verified the sample
    calls = []
    measure = cli.geometry.hausdorff

    def counted(*args, **kwargs):
        calls.append(1)
        return measure(*args, **kwargs)

    monkeypatch.setattr(cli.geometry, "hausdorff", counted)
    out = tmp_path / "chord.csv"
    assert main(["generate", "--shape", "circle-chord", "--eps", "0.05", "--n", "300",
                 "--noise", "0.01", "--seed", "3", "-o", str(out)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    P = load_sample_csv(out)
    hd = measure(P.points, circle_chord(), grid=hausdorff_grid(0.05))
    assert (blob["hausdorff"], blob["hausdorff_error_bound"]) == (hd.value, hd.error_bound)


def test_generate_too_sparse_is_validation_error(tmp_path):
    rc = main(["generate", "--shape", "circle", "--eps", "0.01",
               "--n", "20", "-o", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("option,message", [
    (["--radius", "0"], "circle radius must be positive and finite"),
    (["--radius", "-1"], "circle radius must be positive and finite"),
    (["--noise", "-0.05"], "noise must be >= 0 and finite"),
])
def test_generate_bad_radius_or_noise_is_validation_error(tmp_path, option, message,
                                                         capsys):
    out = tmp_path / "x.csv"
    rc = main(["generate", "--shape", "circle", "--eps", "0.1", "--n", "100", *option,
               "-o", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_scales_selector_json(tmp_path):
    out = tmp_path / "scales.json"
    rc = main(["scales", "--c", "sqrt2", "--t", "0", "--eps", "0.05",
               "--select", "manifold", "--nu", "1.0",
               "--R", "1.0", "--r", "0.5", "-o", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["regime"] == "manifold" and blob["warnings"] == []
    assert blob["ball_R"] == 1.0 and blob["ball_r"] == 0.5
    assert blob["scale2"] == pytest.approx((1 + math.sqrt(2)) * 0.05)


def test_scales_missing_eps_is_validation_error():
    assert main(["scales", "--select", "manifold", "--nu", "1.0"]) == 2


def test_scales_infeasible_exit_code():
    rc = main(["scales", "--c", "sqrt2", "--t", "0", "--eps", "0.14",
               "--select", "manifold", "--nu", "1.0"])
    assert rc == 3


@pytest.mark.parametrize("command", ["scales", "infer", "group"])
@pytest.mark.parametrize("values,message", [
    (["--scale1", "0.05", "--ball-r", "-0.1"], "ball_r must be >= 0, got -0.1"),
    (["--scale1", "-0.1", "--ball-r", "0.5"], "scale1 must be positive, got -0.1"),
    (["--scale1", "0", "--ball-r", "0.5"], "scale1 must be positive, got 0.0"),
], ids=["negative-ball-r", "negative-scale1", "zero-scale1"])
def test_bad_manual_scales_are_infeasible(tmp_path, command, values, message, capsys):
    # SelectedScales applies a query's rules: exit 3 before any selector
    # arithmetic or engine build, and nothing written
    where = ["--eps", "0.05"]
    if command != "scales":
        where = ["--sample", str(_generate_circle(tmp_path))]
        capsys.readouterr()
    out = tmp_path / "out.json"
    rc = main([command, *where, "--scale2", "0.12", "--ball-R", "1.0", *values,
               "-o", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert f"infeasible: {message}" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["scales", "--eps", "-1", "--select", "manifold", "--nu", "1"],
     "error: eps must be positive and finite, got -1.0"),
    (["scales", "--eps", "0", "--scale1", "0.05", "--scale2", "0.12",
      "--ball-R", "1.0", "--ball-r", "0.5"], "error: eps must be positive and finite, got 0.0"),
    (["scales", "--eps", "0.05", "--select", "manifold", "--nu", "-1"],
     "error: nu must be positive and finite, got -1.0"),
], ids=["negative-eps", "zero-eps-manual", "negative-nu"])
def test_bad_scale_values_are_validation_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_infer_bad_reach_is_validation_error(tmp_path, capsys):
    sample = _generate_circle(tmp_path)
    capsys.readouterr()
    for command in ("infer", "group"):
        assert main([command, "--sample", str(sample), "--select", "manifold",
                     "--nu", "-1"]) == 2
        assert "error: nu must be positive and finite" in capsys.readouterr().err


def test_manual_scales_need_all_four():
    rc = main(["scales", "--eps", "0.05", "--scale1", "0.05",
               "--scale2", "0.12"])
    assert rc == 3


def test_infer_roundtrip_circle(tmp_path):
    sample = _generate_circle(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["infer", "--sample", str(sample), "--c", "sqrt2",
               "--select", "manifold", "--nu", "1.0",
               "--R", "1.0", "--r", "0.5", "-o", str(report_path)])
    assert rc == 0
    blob = json.loads(report_path.read_text())
    assert blob["accuracy"]["overall"] == 1.0
    assert all(p["ranks"] == {"0": 0, "1": 1} and p["label"] == "rank1"
               for p in blob["points"])


def test_infer_byte_identical_reruns(tmp_path):
    sample = _generate_circle(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = main(["infer", "--sample", str(sample), "--c", "sqrt2",
                   "--select", "manifold", "--nu", "1.0",
                   "--R", "1.0", "--r", "0.5", "-o", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_infer_missing_sample_is_validation_error(tmp_path):
    rc = main(["infer", "--sample", str(tmp_path / "missing.csv"),
               "--select", "manifold", "--nu", "1.0"])
    assert rc == 2


def test_group_circle_single_group(tmp_path):
    sample = _generate_circle(tmp_path)
    out = tmp_path / "groups.json"
    rc = main(["group", "--sample", str(sample), "--c", "sqrt2",
               "--select", "manifold", "--nu", "1.0",
               "--R", "1.0", "--r", "0.5", "-o", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["heuristic"] is True
    assert blob["n_groups"] == 1 and blob["groups"] == [list(range(70))]


def test_scan_writes_csv_and_summary(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--shape", "circle", "--x", "1.0,0.0",
               "--alpha", "0.12", "--eps", "0.05", "--grid", "0.2:1.6:8",
               "--dense-n", "300", "-o", str(out)])
    assert rc == 0
    assert out.read_text().startswith("R,r,member\n")
    blob = json.loads(Path(str(out) + ".json").read_text())
    assert blob["empirical"] is True
    assert blob["properties"]["interval_ok"] is True
    assert blob["summary"]["tau"] > 0


def test_scan_infeasible_grid(tmp_path):
    rc = main(["scan", "--shape", "circle", "--x", "1.0,0.0",
               "--alpha", "0.5", "--eps", "0.05", "--grid", "0.1:0.4:4"])
    assert rc == 2


@pytest.mark.parametrize("field", ["0", "1", "4", "9", "x"])
def test_nonprime_field_is_usage_error(tmp_path, field, capsys):
    sample = _generate_circle(tmp_path)
    for argv in (["infer", "--sample", str(sample)], ["group", "--sample", str(sample)],
                 ["scan", "--shape", "circle", "--x", "1.0,0.0", "--alpha", "0.12",
                  "--eps", "0.05", "--grid", "0.2:1.6:8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--field", field])
        assert exc.value.code == 2
    assert f"{field!r} is not a prime" in capsys.readouterr().err


_SCAN = ["scan", "--shape", "circle", "--alpha", "0.12", "--eps", "0.05"]


@pytest.mark.parametrize("argv", [
    _SCAN + ["--x", "1.0,0.0", "--grid", "0.2:1.6"],
    _SCAN + ["--x", "1.0,0.0", "--grid", "0.2:1.6:0"],
    _SCAN + ["--x", "1.0,0.0", "--grid", "0.2:1.6:2.5"],
    _SCAN + ["--x", "1.0,0.0", "--grid", "a:1.6:8"],
    _SCAN + ["--x", "a,0", "--grid", "0.2:1.6:8"],
    _SCAN + ["--x", "1,0,0", "--grid", "0.2:1.6:8"],
    ["generate", "--shape", "segment", "--p0", "a,b", "--eps", "0.1", "--n", "30",
     "-o", "x.csv"],
    ["generate", "--shape", "segment", "--p1", "1", "--eps", "0.1", "--n", "30",
     "-o", "x.csv"],
    ["infer", "--sample", "x.csv", "--maxdim", "-1"],
    ["group", "--sample", "x.csv", "--maxdim", "-1"],
    ["check", "--max-pts", "3"],
    ["check", "--random", "-3"],
    ["check", "--seed", "-1"],
    ["generate", "--shape", "circle", "--eps", "0.1", "--n", "100", "--seed", "-1",
     "-o", "x.csv"],
    ["generate", "--shape", "circle", "--eps", "0.1", "--n", "100", "--noise", "0.01",
     "--seed", "-1", "-o", "x.csv"],
    ["scales", "--eps", "nan", "--select", "manifold", "--nu", "1"],
    ["infer", "--sample", "x.csv", "--eps", "nan", "--select", "manifold", "--nu", "1"],
    ["group", "--sample", "x.csv", "--scale1", "0.1", "--scale2", "inf",
     "--ball-R", "0.5", "--ball-r", "0.2"],
    ["generate", "--shape", "circle", "--eps", "inf", "--n", "30", "-o", "x.csv"],
    ["scan", "--shape", "circle", "--alpha", "nan", "--eps", "0.05", "--x", "1.0,0.0",
     "--grid", "0.2:1.6:8"],
    _SCAN + ["--x", "nan,0", "--grid", "0.2:1.6:8"],
    _SCAN + ["--x", "1.0,0.0", "--grid", "0.2:inf:8"],
], ids=["grid-no-steps", "grid-zero-steps", "grid-fractional-steps", "grid-bad-lo",
        "x-not-numbers", "x-three-coordinates", "p0-not-numbers",
        "p1-one-coordinate", "infer-negative-maxdim",
        "group-negative-maxdim", "check-max-pts-below-4", "check-negative-random", "check-negative-seed",
        "generate-negative-seed", "generate-noisy-negative-seed",
        "scales-nan-eps", "infer-nan-eps", "group-inf-scale", "generate-inf-eps",
        "scan-nan-alpha", "x-nan", "grid-inf-hi"])
def test_malformed_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_too_few_points_per_component_is_validation_error(tmp_path, capsys):
    # the circle-with-chord shape needs 2 points on each of its 2 components
    rc = main(["generate", "--shape", "circle-chord", "--eps", "0.5", "--n", "3",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "n must be at least 4" in capsys.readouterr().err
    rc = main(_SCAN + ["--x", "1.0,0.0", "--grid", "0.2:1.6:8", "--dense-n", "1"])
    assert rc == 2
    assert "n must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "scan", "infer"])
def test_zero_length_segment_is_validation_error(tmp_path, command, capsys):
    shape = ["--shape", "segment", "--p0", "0,0", "--p1", "0,0"]
    if command == "generate":
        argv = ["generate", *shape, "--eps", "0.1", "--n", "20",
                "-o", str(tmp_path / "x.csv")]
    elif command == "scan":
        argv = ["scan", *shape, "--x", "0,0", "--alpha", "0.12", "--eps", "0.05",
                "--grid", "0.2:1.6:8"]
    else:
        sample = _generate_circle(tmp_path)
        capsys.readouterr()
        argv = ["infer", "--sample", str(sample), *shape, "--scale1", "0.05",
                "--scale2", "0.2", "--ball-R", "0.5", "--ball-r", "0.3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "segment endpoints coincide" in captured.err and captured.out == ""


def test_infer_mismatched_shape_is_validation_error(tmp_path, monkeypatch, capsys):
    # a noisy sample records its generating points, which lie on the
    # circle-with-chord and not on the segment it is scored against
    sample = tmp_path / "chord.csv"
    assert main(["generate", "--shape", "circle-chord", "--eps", "0.1",
                 "--n", "200", "--noise", "0.01", "-o", str(sample)]) == 0
    capsys.readouterr()
    scales = ["--scale1", "0.1", "--scale2", "0.25", "--ball-R", "0.6", "--ball-r", "0.4"]
    queried = []
    monkeypatch.setattr(cli.pipeline, "infer_all",
                        lambda *a, **kw: queried.append(1) or [])
    rc = main(["infer", "--sample", str(sample), "--shape", "segment", *scales])
    assert rc == 2 and not queried
    captured = capsys.readouterr()
    assert "generated on another shape" in captured.err and captured.out == ""
    rc = main(["infer", "--sample", str(sample), "--shape", "circle-chord", *scales])
    assert rc == 0 and queried


@pytest.mark.parametrize("dim", [1, 3])
def test_infer_non_planar_sample_is_validation_error(tmp_path, dim, capsys):
    # a sample read from CSV may have any number of columns; the shapes lie
    # in the plane, so scoring against one needs exactly two
    sample = tmp_path / "pts.csv"
    rows = [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.5]]
    lines = [",".join(f"x{k}" for k in range(dim))]
    lines += [",".join(repr(v) for v in row[:dim]) for row in rows]
    sample.write_text("\n".join(lines) + "\n")
    rc = main(["infer", "--sample", str(sample), "--eps", "0.5", "--shape", "circle",
               "--scale1", "0.5", "--scale2", "1.2", "--ball-R", "1.5", "--ball-r", "1.4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"sample points have {dim} coordinate(s)" in captured.err
    assert captured.out == ""


def test_check_prints_tally(capsys):
    rc = main(["check", "--random", "25", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "25/25 direct==coned" in out
    assert "25/25 engine==direct" in out


def test_check_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "image_rank_oracle",
        lambda spec, pts: HomologySignature({0: 99}, "coned"))
    rc = main(["check", "--random", "3", "--seed", "3"])
    assert rc == 4
    assert "direct==coned" in capsys.readouterr().out


def test_check_engine_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        ImageRankEngine, "query_index",
        lambda self, i, keep_detail=False: HomologySignature({0: 99, 1: 0}, "direct"))
    rc = main(["check", "--random", "3", "--seed", "3"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "3/3 direct==coned" in out and "0/3 engine==direct" in out


def test_plot_svg(tmp_path):
    sample = _generate_circle(tmp_path)
    report_path = tmp_path / "report.json"
    main(["infer", "--sample", str(sample), "--c", "sqrt2",
          "--select", "manifold", "--nu", "1.0",
          "--R", "1.0", "--r", "0.5", "-o", str(report_path)])
    svg_path = tmp_path / "plot.svg"
    rc = main(["plot", "--report", str(report_path), "--overlay-shape",
               "-o", str(svg_path)])
    assert rc == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") >= 70


@pytest.mark.parametrize("report,message", [
    ([1, 2], "not an infer report"),
    ({"points": [{"i": 0, "label": "rank1"}]}, "not an infer report"),
    ({"points": [{"i": 0, "coords": [0.5], "label": "rank1"}]}, "not an infer report"),
    ({"points": [{"i": 0, "coords": ["a", 0.0], "label": "rank1"}]}, "not an infer report"),
    ({"points": {"0": {"coords": [0.0, 1.0], "label": "rank1"}}}, "not an infer report"),
    ({"points": [{"i": 0, "coords": [0.0, 1.0]}]}, "not an infer report"),
    ({"points": [], "sample": [1]}, "not an infer report"),
    ({"points": [], "sample": {"shape": "circle"}}, "not an infer report"),
    ({"points": [], "sample": {"shape": {"kind": "blob"}}}, "unsupported shape kind 'blob'"),
], ids=["list", "no-coords", "one-coordinate", "text-coordinate", "points-object",
        "no-label", "sample-list", "shape-text", "shape-kind"])
def test_plot_rejects_what_is_not_an_infer_report(tmp_path, report, message, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    svg = tmp_path / "plot.svg"
    assert main(["plot", "--report", str(path), "--overlay-shape", "-o", str(svg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not svg.exists()


def test_emit_json_formatting():
    out = cli.emit_json({"a": 1.0, "b": 0.5, "z": None, "l": [True, 2]})
    assert out == '{"a": 1.0, "b": 0.5, "z": null, "l": [true, 2]}\n'
    with pytest.raises(ValueError):
        cli.emit_json(float("nan"))
