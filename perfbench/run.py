"""Benchmark of the localhom library: one workload per process, one caller,
closed loop (each query is issued when the previous one has returned).

    python3 perfbench/run.py --workload chord_infer --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same queries untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it give the run's metadata, every metric with its unit, and a digest
of every rank computed.  ``--workload all`` runs every workload, each in a
fresh process.  ``--smoke`` shrinks every workload for a quick check.
"""

from __future__ import annotations

import os

# One caller: keep BLAS from starting threads of its own (set before numpy).
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
# The benchmark's modules, then the library from the checkout's sources.  A
# checkout without src/ stops at the imports below, before any result line.
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy  # noqa: E402
from localhom import complexes  # noqa: E402

from gauge import Gauge  # noqa: E402
from metrics import BASELINE_KERNEL, END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BY_NAME, Recorder, Round, ranks_of  # noqa: E402


def kernel_name() -> str:
    try:
        from localhom import _gf2fast
    except ImportError:
        return "python"
    return "numba" if _gf2fast.AVAILABLE else "python"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    kernel = kernel_name()
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "smoke": args.smoke, "kernel": kernel,
            "kernel_matches_baseline": kernel == BASELINE_KERNEL,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def aside_s(rd) -> float:
    """Seconds of the round spent on work reported on its own (group_s)."""
    return rd.info.get("aside_s", 0.0) if isinstance(rd.info, dict) else 0.0


def one_round(wl, state, rec, r):
    """Run round ``r`` and time it.  A round that raises is recorded with its
    traceback and the run goes on."""
    rd = Round(r, len(rec.records), len(rec.records))
    gauge = rec.gauge
    if gauge:
        spent0, before = gauge.spent, gauge.factor()
    t0 = time.perf_counter()
    try:
        rd.info = wl.run_round(state, r, rec)
    except Exception:
        rd.error = traceback.format_exc()
        print(rd.error, file=sys.stderr)
    rd.wall = time.perf_counter() - t0
    rd.stop = len(rec.records)
    if gauge:
        # queries carry their own scaled times; the rest of the round (gauge
        # samples left out) is scaled by the mean of the factors before and
        # after it, the latter from a fresh window if the round was long
        if rd.wall > 1.0:
            after = gauge.fresh_factor()
        else:
            gauge.maybe_sample()
            after = gauge.factor()
        rd.factor = (before + after) / 2
        queries = slice(rd.start, rd.stop)
        rest = (rd.wall - sum(rec.latencies[queries]) - (gauge.spent - spent0)
                - aside_s(rd))
        rd.scaled_wall = sum(rec.scaled[queries]) + rest * rd.factor
    return rd


def run_rounds(wl, state, rec, seconds):
    """Issue rounds back to back until ``seconds`` have passed (at least one
    round)."""
    done = []
    t0 = time.perf_counter()
    while not done or time.perf_counter() - t0 < seconds:
        done.append(one_round(wl, state, rec, len(done)))
    return done, time.perf_counter() - t0


def tally(wl, state, rounds, rec):
    """(attempted, failed): queries issued, and those that failed the check;
    a round that raised counts as one more failed query."""
    errors = sum(1 for rd in rounds if rd.error)
    attempted = len(rec.records) + errors
    return attempted, wl.check(state, rounds, rec) + errors


def _canon(x):
    if isinstance(x, dict):
        return tuple(sorted(x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return x


def digest(records) -> str:
    h = hashlib.sha256()
    for key, out in records:
        h.update(repr((key, _canon(ranks_of(out)))).encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, seconds):
    gauge = Gauge()
    setup_raw, setup_scaled = [], []
    state = None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        f0 = gauge.fresh_factor()
        t0 = time.perf_counter()
        state = wl.setup()
        dt = time.perf_counter() - t0
        setup_raw.append(dt)
        setup_scaled.append(dt * (f0 + gauge.fresh_factor()) / 2)
    wl.plan(state)
    rec = Recorder(gauge)
    rounds, wall = run_rounds(wl, state, rec, seconds)
    attempted, failed = tally(wl, state, rounds, rec)

    def timings(setups, lat, total):
        q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
        return {"setup_s": statistics.median(setups),
                "queries_per_s": len(lat) / total,
                "query_p50_ms": 1e3 * statistics.median(lat),
                "query_p90_ms": 1e3 * q[8]}

    metrics = timings(setup_scaled, rec.scaled, sum(rd.scaled_wall for rd in rounds))
    metrics["peak_rss_mb"] = peak_rss_mb()
    extra = {"query_p50_ms": metrics.pop("query_p50_ms"),
             "query_p90_ms": metrics.pop("query_p90_ms"),
             "failed_frac": failed / attempted}
    groups = [aside_s(rd) * rd.factor for rd in rounds if aside_s(rd)]
    if groups:
        extra["group_s"] = statistics.median(groups)
    notes = {"queries": len(rec.records), "rounds": len(rounds), "timed_s": wall,
             "setup_runs": len(setup_raw),
             "unscaled": timings(setup_raw, rec.latencies,
                                 sum(rd.wall - aside_s(rd) for rd in rounds)),
             "digests": {"round1": digest(rec.records[:rounds[0].stop]),
                         "all": digest(rec.records)}}
    return metrics, extra, notes, attempted, failed, True


def sizes(size_queries) -> dict:
    """Size counters from public calls only: point distances and the basis
    counts of the two quotient pairs of each sampled query."""
    local, lv1, lv2 = [], {0: [], 1: []}, {0: [], 1: [], 2: []}
    for sq in size_queries:
        (a1, b1), (a2, b2) = sq.level1, sq.level2
        d2 = ((numpy.asarray(sq.points) - sq.center) ** 2).sum(-1)
        local.append(int((d2 <= (b2 + 2 * a2) ** 2).sum()))
        q1 = complexes.quotient_pair(sq.points, sq.center, a1, b1, sq.flavor, sq.lmax)
        q2 = complexes.quotient_pair(sq.points, sq.center, a2, b2, sq.flavor, sq.lmax + 1)
        for d in lv1:
            lv1[d].append(q1.dim_count(d))
        for d in lv2:
            lv2[d].append(q2.dim_count(d))
    out = {}

    def put(prefix, vals):
        out[prefix + ".min"] = min(vals)
        out[prefix + ".median"] = statistics.median(vals)
        out[prefix + ".max"] = max(vals)

    put("relhom.local_vertices", local)
    for d, vals in lv1.items():
        put(f"relhom.level1_basis_simplices.d{d}", vals)
    for d, vals in lv2.items():
        put(f"relhom.level2_basis_simplices.d{d}", vals)
    return out


def traced(wl, seconds, trace_path):
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup()
    finally:
        tracer.uninstall()
    wl.plan(state)
    one_round(wl, state, Recorder(), 0)      # warm-up, so neither pass runs cold
    # Each round runs untraced, then traced: the same queries, so the two
    # digests must match and the wall-time difference is the tracer's cost.
    rec_u, rec_t = Recorder(), Recorder(tracer=tracer)
    rounds_u, rounds_t = [], []
    tracer.phase = "queries"
    t0 = time.perf_counter()
    while not rounds_t or time.perf_counter() - t0 < seconds:
        rounds_u.append(one_round(wl, state, rec_u, len(rounds_u)))
        tracer.install()
        try:
            rounds_t.append(one_round(wl, state, rec_t, len(rounds_t)))
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics(len(rec_t.records))
    wall_u = sum(rd.wall for rd in rounds_u)
    wall_t = sum(rd.wall for rd in rounds_t)
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics.update(sizes(wl.size_queries(state, rounds_t, rec_t)))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    attempted, failed = tally(wl, state, rounds_t, rec_t)
    d_u, d_t = digest(rec_u.records), digest(rec_t.records)
    same = d_u == d_t
    if not same:
        print(f"error: traced digest {d_t} differs from untraced {d_u}", file=sys.stderr)
    notes = {"queries": len(rec_t.records), "rounds": len(rounds_t),
             "untraced_s": wall_u, "traced_s": wall_t, "spans": len(tracer.spans),
             "trace_file": str(trace_path.relative_to(HERE.parent)),
             "digests": {"round1": digest(rec_t.records[:rounds_t[0].stop]),
                         "all": d_t, "untraced_all": d_u}}
    return metrics, {}, notes, attempted, failed, same


def _fmt(name, value, n=None):
    tail = f" (n={n})" if n is not None else ""
    return f"metric {name} {value!r} {UNITS[name]}{tail}"


def run_one(args) -> int:
    wl = BY_NAME[args.workload](args.seed, smoke=args.smoke)
    meta = run_metadata(args)
    if not meta["kernel_matches_baseline"]:
        print(f"WARNING: GF(2) kernel {meta['kernel']!r} differs from the "
              "baseline's; timings are not comparable", file=sys.stderr)
    if args.trace:
        trace_path = HERE / "out" / f"trace_{args.workload}_seed{args.seed}.jsonl"
        metrics, extra, notes, attempted, failed, ok = traced(wl, args.seconds, trace_path)
        names = [m.name for m in PER_LAYER]
    else:
        metrics, extra, notes, attempted, failed, ok = untraced(wl, args.seconds)
        names = [m.name for m in END_TO_END]
    meta.update(notes)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in [(k, metrics[k]) for k in names] + list(extra.items()):
        print(_fmt(name, value, notes["queries"] if name.startswith("query_p") else None))
    print("digest " + json.dumps(notes["digests"], sort_keys=True))
    result = {"correct": bool(ok and failed == 0), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in names}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        ok = proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
