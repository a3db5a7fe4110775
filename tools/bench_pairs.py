"""Run the benchmark on two commits in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 2301-2310 --seconds 15 \
        -o BENCH_23.json

Each commit is exported with ``git archive`` into a directory of its own,
and ``perfbench/run.py`` runs from there, one process per workload and side.
For each seed, every workload runs on both sides back to back; the parent
goes first on the first seed, the change on the second, and so on.  The
output file holds every run's end-to-end metrics, digests and wall time,
and per workload and metric a summary: the medians and quartiles (numpy's
linear 25th and 75th percentiles) of both sides, the change over the
parent, the pairs the change wins, and the median gap over the parent's
interquartile range, signed so that a gain is positive.  The bounds and
directions come from the change's ``BENCHMARK.json``.

A metric is flagged "worse" when its median is worse than the parent's by
more than its bound, and "gain" when the change wins at least nine pairs in
ten and its median gap exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def export(commit: str, into: Path) -> str:
    """The tree of ``commit`` written to ``into``; returns its short hash."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", commit],
                          check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its result line, the
    first round's digest, its metadata and its wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    out = {"returncode": proc.returncode, "wall_s": wall}
    for line in lines:
        if line.startswith("meta "):
            out["meta"] = json.loads(line[5:])
        elif line.startswith("digest "):
            out["round1_digest"] = json.loads(line[7:])["round1"]
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        out.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"])
        out.update({k: v["value"] for k, v in result["metrics"].items()})
    return out


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(runs: dict, seeds, workloads, metrics) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the change
    over the parent, its wins, the signed median gap over the parent's
    interquartile range and the verdicts."""
    out = {}
    for w in workloads:
        out[w] = {"metrics": {}}
        for m in metrics:
            sign = 1 if m["better"] == "higher" else -1
            pairs = [(runs[s]["parent"][w].get(m["name"]), runs[s]["change"][w].get(m["name"]))
                     for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            par = quartiles([p for p, _ in pairs])
            chg = quartiles([c for _, c in pairs])
            iqr = par["q3"] - par["q1"]
            gap = sign * (chg["median"] - par["median"])
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            worse = -gap / abs(par["median"]) if par["median"] else 0.0
            out[w]["metrics"][m["name"]] = {
                "better": m["better"], "bound": m["bound"], "parent": par, "change": chg,
                "change_over_parent": chg["median"] / par["median"] if par["median"] else None,
                "change_wins": f"{wins}/{len(pairs)}",
                "median_gap_over_parent_iqr": gap / iqr if iqr else None,
                "worse_than_bound": worse > m["bound"],
                "gain": wins >= 0.9 * len(pairs) and gap > iqr}
        fails = {side: sum(runs[s][side][w].get("failed", 0) for s in seeds)
                 for side in ("parent", "change")}
        digests = {(runs[s]["parent"][w].get("round1_digest"),
                    runs[s]["change"][w].get("round1_digest")) for s in seeds}
        out[w]["failed"] = fails
        out[w]["round1_digests_equal"] = all(p == c for p, c in digests)
    return out


def report(summary: dict) -> None:
    print(f"{'workload':14} {'metric':14} {'parent':>11} {'IQR':>9} {'change':>11} "
          f"{'chg/par':>8} {'wins':>6}  verdict")
    for w, per in summary.items():
        for name, s in per["metrics"].items():
            verdict = "WORSE" if s["worse_than_bound"] else ("gain" if s["gain"] else "ok")
            iqr = s["parent"]["q3"] - s["parent"]["q1"]
            ratio = s["change_over_parent"]
            print(f"{w:14} {name:14} {s['parent']['median']:11.4g} {iqr:9.3g} "
                  f"{s['change']['median']:11.4g} "
                  f"{ratio if ratio is None else round(ratio, 4)!s:>8} "
                  f"{s['change_wins']:>6}  {verdict} (bound {s['bound']})")
        print(f"{w:14} failed {per['failed']}, round-1 digests equal: "
              f"{per['round1_digests_equal']}")


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=seed_list, required=True, help="first-last, e.g. 2301-2310")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--workloads", default="all", help="comma-separated, or all")
    ap.add_argument("--workdir", help="where the trees are exported (default: a new "
                                      "temporary directory)")
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: work / side for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), trees[side]) for side in trees}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
    runs, order, meta = {}, {}, None
    for k, seed in enumerate(args.seeds):
        order[seed] = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        runs[seed] = {"parent": {}, "change": {}}
        for w in workloads:
            for side in order[seed]:
                r = run(trees[side], w, seed, args.seconds)
                meta = meta or r.get("meta")
                r.pop("meta", None)
                runs[seed][side][w] = r
                print(f"seed {seed} {w} {side}: " + ", ".join(
                    f"{m['name']} {r.get(m['name'], float('nan')):.5g}"
                    for m in bench["end_to_end"]), flush=True)
    summary = summarise(runs, args.seeds, workloads, bench["end_to_end"])
    out = {"what": "perfbench end-to-end metrics, parent vs change, alternating which "
                   "side runs first per seed; one process per workload and side, each "
                   "workload's parent and change runs back to back; quartiles are numpy's "
                   "linear 25th/75th percentiles; wall_s is each workload process's wall "
                   "time, set-up, timed phase and check together",
           "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                      f"--seconds {args.seconds:g}",
           "invocation": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None
                                                                else argv),
           "parent": commits["parent"], "change_commit": commits["change"],
           "host": {k: (meta or {}).get(k) for k in ("cpu", "nproc", "python", "numpy")}
           | {"platform": platform.platform()},
           "seeds": args.seeds, "order": order, "summary": summary, "runs": runs}
    Path(args.output).write_text(json.dumps(out, indent=1) + "\n")
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
