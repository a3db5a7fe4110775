"""Command-line surface: generate, scales, infer, group, scan, check, plot.

Exit codes: 0 success, 2 validation error, 3 infeasible scales, 4 oracle
or engine mismatch.  All machine-readable output is JSON with fixed key
order and 17-significant-digit floats, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import geometry, pipeline, plotting
from .explorer import scan_alpha_section, scan_to_csv, section_properties
from .fieldla import _is_prime
from .geometry import (Sample, load_sample_csv, make_shape,
                       save_sample_csv, shape_from_meta)
from .relhom import ImageRankEngine, QuerySpec, image_rank, image_rank_oracle
from .scales import (InfeasibleScales, ReachBound, ScaleConstants,
                     SeemlinessBound, SelectedScales, manual_scales,
                     select_bounded, select_manifold, select_strong)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4


def emit_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits."""

    def emit(v):
        if v is None:
            return "null"
        if isinstance(v, bool) or isinstance(v, np.bool_):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            v = float(v)
            if math.isnan(v) or math.isinf(v):
                raise ValueError("non-finite float in JSON output")
            if v == int(v) and abs(v) < 1e16:
                return f"{v:.1f}"
            return f"{v:.17g}"
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, dict):
            return "{" + ", ".join(
                json.dumps(str(k)) + ": " + emit(val) for k, val in v.items()) + "}"
        if isinstance(v, (list, tuple, np.ndarray)):
            return "[" + ", ".join(emit(x) for x in v) + "]"
        raise TypeError(f"cannot serialize {type(v)}")

    return emit(obj) + "\n"


def _write_or_print(text: str, path) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _c_value(token: str, s: float) -> float:
    if token == "1":
        return 1.0
    if token == "sqrt2":
        return math.sqrt(2.0)
    if token == "2":
        return 2.0
    if token == "s":
        return s
    raise argparse.ArgumentTypeError(f"bad c value {token!r}")


def _prime(token: str) -> int:
    """A ``--field`` value: the coefficient field GF(q) needs a prime q."""
    if not token.isdigit() or not _is_prime(int(token)):
        raise argparse.ArgumentTypeError(f"{token!r} is not a prime")
    return int(token)


def _nonnegative(token: str) -> int:
    """A ``--maxdim``, ``--random`` or ``--seed`` value: an integer >= 0."""
    if not token.isdigit():
        raise argparse.ArgumentTypeError(f"{token!r} is not an integer >= 0")
    return int(token)


def _max_pts(token: str) -> int:
    """A ``check --max-pts`` value: random instances have 4 to 10 points, so
    a cap below 4 would reject every one of them."""
    if not token.isdigit() or int(token) < 4:
        raise argparse.ArgumentTypeError(f"{token!r} is not an integer >= 4")
    return int(token)


def _finite(token: str) -> float:
    """The value of a float option; nan and inf are usage errors."""
    try:
        if math.isfinite(value := float(token)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{token!r} is not a finite number")


def _point(token: str) -> list:
    """A point of the plane, as x,y."""
    try:
        x, y = (_finite(v) for v in token.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"{token!r} is not a point x,y") from None
    return [x, y]


def _grid(token: str) -> np.ndarray:
    """A ``--grid`` value lo:hi:steps: ``steps`` evenly spaced values from lo
    to hi."""
    try:
        lo, hi, steps = token.split(":")
        lo, hi, steps = _finite(lo), _finite(hi), int(steps)
    except (ValueError, argparse.ArgumentTypeError):
        steps = 0
    if steps < 1:
        raise argparse.ArgumentTypeError(f"{token!r} is not lo:hi:steps with "
                                         "an integer steps >= 1")
    return np.linspace(lo, hi, steps)


def _constants(args, default_t=0) -> ScaleConstants:
    s = math.sqrt(2.0) if args.s == "sqrt2" else 2.0
    t = default_t if args.t is None else args.t
    return ScaleConstants(t=t, s=s, c=_c_value(args.c, s))


def _shape_from_args(args):
    kwargs = {}
    if args.shape == "circle" and args.radius is not None:
        kwargs["radius"] = args.radius
    if args.shape == "segment":
        if args.p0:
            kwargs["p0"] = args.p0
        if args.p1:
            kwargs["p1"] = args.p1
    return make_shape(args.shape, **kwargs)


# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        shape = _shape_from_args(args)
        sample, hd = geometry._generate_verified(shape, args.eps, args.n,
                                                 args.noise, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    save_sample_csv(sample, args.output)
    print(emit_json({"written": str(args.output), "n": len(sample),
                     "epsilon": sample.epsilon, "noisy": sample.noisy,
                     "hausdorff": hd.value,
                     "hausdorff_error_bound": hd.error_bound}), end="")
    return EXIT_OK


def _select_scales(args, cc: ScaleConstants) -> SelectedScales:
    choice = None
    if args.R is not None or args.r is not None:
        if args.R is None or args.r is None:
            raise InfeasibleScales("give both --R and --r or neither")
        choice = (args.R, args.r)
    if args.select == "manifold":
        if args.nu is None:
            raise InfeasibleScales("--select manifold requires --nu")
        rb = ReachBound(args.nu, args.boundary_margin)
        return select_manifold(cc, args.eps, rb, choice)
    if args.select == "strong":
        if args.rbar is None or args.Rbar is None:
            raise InfeasibleScales("--select strong requires --rbar and --Rbar")
        return select_strong(cc, args.eps, args.rbar, args.Rbar, choice)
    if args.select == "bounded":
        if args.M is None or args.M0 is None:
            raise InfeasibleScales("--select bounded requires --M, --m, --M0")
        return select_bounded(cc, args.eps, SeemlinessBound(args.M, args.m, args.M0),
                              choice)
    raise InfeasibleScales(f"unknown selection regime {args.select!r}")


def _scales_from_args(args, cc: ScaleConstants, eps: float) -> SelectedScales:
    manual = [args.scale1, args.scale2, args.ball_R, args.ball_r]
    if any(v is not None for v in manual):
        if any(v is None for v in manual):
            raise InfeasibleScales(
                "manual scales need all of --scale1 --scale2 --ball-R --ball-r")
        return manual_scales(cc, eps, args.scale1, args.scale2,
                             args.ball_R, args.ball_r)
    if args.select is None:
        raise InfeasibleScales("give manual scales or --select REGIME")
    args.eps = eps if args.eps is None else args.eps
    return _select_scales(args, cc)


def _scale_error(exc: ValueError) -> int:
    """Reports why no scales were selected: exit 3 for infeasible scales, 2
    for any other bad value, such as an eps or nu <= 0."""
    if isinstance(exc, InfeasibleScales):
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def cmd_scales(args) -> int:
    cc = _constants(args)
    if args.eps is None:
        print("error: --eps is required", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        sel = _scales_from_args(args, cc, args.eps)
    except ValueError as exc:
        return _scale_error(exc)
    _write_or_print(emit_json(sel.as_dict()), args.output)
    return EXIT_OK


def _load_sample(args) -> Sample:
    return load_sample_csv(args.sample, epsilon=args.eps)


def cmd_infer(args) -> int:
    try:
        P = _load_sample(args)
        shape = _shape_from_args(args) if args.shape else None
        if shape is None and P.shape_meta and "kind" in P.shape_meta:
            shape = shape_from_meta(P.shape_meta)
        if shape is not None:
            pipeline.check_on_shape(P, shape)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    cc = _constants(args, default_t=P.t)
    try:
        sel = _scales_from_args(args, cc, P.epsilon)
    except ValueError as exc:
        return _scale_error(exc)
    results = pipeline.infer_all(P, sel, cc, q=args.field, lmax=args.maxdim)
    if shape is not None:
        report = pipeline.classify(P, results, shape, sel)
    else:
        report = pipeline.RunReport(pipeline._sample_meta(P), sel,
                                    list(results), P.points)
    _write_or_print(emit_json(report.as_dict()), args.output)
    return EXIT_OK


def cmd_group(args) -> int:
    try:
        P = _load_sample(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    cc = _constants(args, default_t=P.t)
    try:
        sel = _scales_from_args(args, cc, P.epsilon)
    except ValueError as exc:
        return _scale_error(exc)
    groups = pipeline.group_strata(P, sel, cc, q=args.field, lmax=args.maxdim)
    _write_or_print(emit_json({"heuristic": True, "n_groups": len(groups),
                               "groups": groups}), args.output)
    return EXIT_OK


def cmd_scan(args) -> int:
    try:
        shape = _shape_from_args(args)
        scan = scan_alpha_section(shape, args.x, args.alpha, args.eps, args.grid,
                                  dense_n=args.dense_n, q=args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    summary = {"empirical": True, "center": list(scan.center),
               "alpha": scan.alpha, "eps": scan.eps,
               "dense_n": scan.dense_n, "dense_hausdorff": scan.dense_hausdorff,
               "summary": scan.summary,
               "properties": section_properties([scan])}
    if args.output:
        Path(args.output).write_text(scan_to_csv(scan))
        Path(str(args.output) + ".json").write_text(emit_json(summary))
    else:
        sys.stdout.write(emit_json(summary))
    return EXIT_OK


def _random_instance(rng):
    # points on a 1/16 grid in the plane or in space, scales and radii in
    # multiples of 1/32: collinear and right triangles, coplanar
    # tetrahedra and distances equal to 2a or to b come up
    n = int(rng.integers(4, 11))
    dim = int(rng.integers(2, 4))
    pts = np.round(rng.uniform(-1.0, 1.0, size=(n, dim)) * 16) / 16
    a1 = round(float(rng.uniform(0.1, 0.5)) * 32) / 32
    a2 = a1 + round(float(rng.uniform(0.0, 0.4)) * 32) / 32
    b1 = round(float(rng.uniform(0.1, 1.5)) * 32) / 32
    b2 = round(float(rng.uniform(0.0, b1)) * 32) / 32
    q = int(rng.choice([2, 3, 5]))
    flavor = str(rng.choice(["rips", "cech"]))
    p = int(rng.integers(0, n))
    lmax = int(rng.integers(0, 3))
    return pts, QuerySpec(p, (a1, b1), (a2, b2), flavor=flavor, q=q, lmax=lmax)


def cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    total = args.random
    for k in range(total):
        pts, spec = _random_instance(rng)
        while len(pts) > args.max_pts:
            pts, spec = _random_instance(rng)
        d = image_rank(spec, pts).ranks
        o = image_rank_oracle(spec, pts).ranks
        e = ImageRankEngine(pts, spec.level1, spec.level2, flavor=spec.flavor,
                            q=spec.q, lmax=spec.lmax).query_index(spec.p).ranks
        if d != o or e != d:
            failures.append({"instance": k, "direct": d, "coned": o, "engine": e})
    bad = {k: sum(f[k] != f["direct"] for f in failures) for k in ("coned", "engine")}
    print(f"{total - bad['coned']}/{total} direct==coned")
    print(f"{total - bad['engine']}/{total} engine==direct")
    if failures:
        sys.stdout.write(emit_json({"failures": failures}))
        return EXIT_ORACLE
    return EXIT_OK


def _report_shape(report) -> dict:
    """The shape metadata of an ``infer`` report, {} if it has none.  Raises
    ``ValueError`` unless ``report`` reads as one, as ``plotting.report_svg``
    reads it: an object whose points each have a label and two or more
    numeric coords, and whose sample metadata and shape are objects."""
    points = report.get("points", []) if isinstance(report, dict) else None
    sample = report.get("sample") or {} if isinstance(report, dict) else None
    shape = sample.get("shape") or {} if isinstance(sample, dict) else None
    if not isinstance(points, list) or not isinstance(shape, dict) or not all(
            isinstance(p, dict) and isinstance(p.get("label"), str)
            and isinstance(c := p.get("coords"), list) and len(c) >= 2
            and all(isinstance(v, (int, float)) for v in c) for p in points):
        raise ValueError("not an infer report: each point needs a label and "
                         "coords, and the sample metadata must be an object")
    return shape


def cmd_plot(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text())
        meta = _report_shape(report)
        shape = shape_from_meta(meta) if args.overlay_shape and "kind" in meta else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    svg = plotting.report_svg(report, only_correct=args.only_correct,
                              shape=shape)
    _write_or_print(svg, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_constants(sp):
    sp.add_argument("--c", default="sqrt2", choices=["1", "sqrt2", "2", "s"],
                    help="pipeline constant: 1 = Cech, s (= sqrt2 or 2) = Rips")
    sp.add_argument("--s", default="sqrt2", choices=["sqrt2", "2"])
    sp.add_argument("--t", type=int, choices=[0, 1], default=None,
                    help="noise constant; defaults to the sample's noisy flag")


def _add_scale_args(sp):
    sp.add_argument("--eps", type=_finite, default=None)
    sp.add_argument("--scale1", type=_finite)
    sp.add_argument("--scale2", type=_finite)
    sp.add_argument("--ball-R", dest="ball_R", type=_finite)
    sp.add_argument("--ball-r", dest="ball_r", type=_finite)
    sp.add_argument("--select", choices=["manifold", "strong", "bounded"])
    sp.add_argument("--nu", type=_finite)
    sp.add_argument("--boundary-margin", dest="boundary_margin", type=_finite)
    sp.add_argument("--rbar", type=_finite)
    sp.add_argument("--Rbar", type=_finite)
    sp.add_argument("--M", type=_finite)
    sp.add_argument("--m", type=_finite, default=1.0)
    sp.add_argument("--M0", type=_finite)
    sp.add_argument("--R", type=_finite, help="explicit window choice (with --r)")
    sp.add_argument("--r", type=_finite)


def _add_shape_args(sp, required=False):
    sp.add_argument("--shape", required=required,
                    choices=["circle", "circle-chord", "segment"])
    sp.add_argument("--radius", type=_finite)
    sp.add_argument("--p0", type=_point)
    sp.add_argument("--p1", type=_point)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="localhom",
                                 description="local homology from point samples")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a verified eps-sample")
    _add_shape_args(g, required=True)
    g.add_argument("--eps", type=_finite, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--noise", type=_finite, default=0.0)
    g.add_argument("--seed", type=_nonnegative, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("scales", help="select or validate scales")
    _add_constants(s)
    _add_scale_args(s)
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_scales)

    i = sub.add_parser("infer", help="per-point local homology inference")
    i.add_argument("--sample", required=True)
    _add_constants(i)
    _add_scale_args(i)
    _add_shape_args(i)
    i.add_argument("--field", type=_prime, default=2)
    i.add_argument("--maxdim", type=_nonnegative, default=1)
    i.add_argument("-o", "--output")
    i.set_defaults(func=cmd_infer)

    gr = sub.add_parser("group", help="heuristic strata grouping")
    gr.add_argument("--sample", required=True)
    _add_constants(gr)
    _add_scale_args(gr)
    gr.add_argument("--field", type=_prime, default=2)
    gr.add_argument("--maxdim", type=_nonnegative, default=1)
    gr.add_argument("-o", "--output")
    gr.set_defaults(func=cmd_group)

    sc = sub.add_parser("scan", help="empirical (R, r) admissibility scan")
    _add_shape_args(sc, required=True)
    sc.add_argument("--x", required=True, type=_point, help="scan center, e.g. 0.0,1.0")
    sc.add_argument("--alpha", type=_finite, required=True)
    sc.add_argument("--eps", type=_finite, required=True)
    sc.add_argument("--grid", required=True, type=_grid, help="lo:hi:steps for R and r")
    sc.add_argument("--dense-n", dest="dense_n", type=int, default=1000)
    sc.add_argument("--field", type=_prime, default=2)
    sc.add_argument("-o", "--output")
    sc.set_defaults(func=cmd_scan)

    ck = sub.add_parser("check", help="direct-vs-oracle-vs-engine cross validation")
    ck.add_argument("--random", type=_nonnegative, default=200)
    ck.add_argument("--max-pts", dest="max_pts", type=_max_pts, default=10)
    ck.add_argument("--seed", type=_nonnegative, default=1)
    ck.set_defaults(func=cmd_check)

    pl = sub.add_parser("plot", help="SVG scatter of an inference report")
    pl.add_argument("--report", required=True)
    pl.add_argument("--only-correct", action="store_true")
    pl.add_argument("--overlay-shape", action="store_true")
    pl.add_argument("-o", "--output")
    pl.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
