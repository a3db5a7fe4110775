"""Smoke test of the benchmark: every workload once, at a tiny size, with and
without tracing.  Checks that each run is correct and prints every metric
by name with its unit.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, EXTRA, PER_LAYER, UNITS, WORKLOADS  # noqa: E402


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def check_workload(workload: str) -> None:
    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        result, printed = _run(workload, trace)
        assert result["correct"] is True, (workload, trace)
        assert result["attempted"] >= 1 and result["failed"] == 0
        names = [m.name for m in declared]
        assert list(result["metrics"]) == names
        for m in declared:
            got = result["metrics"][m.name]
            assert got["unit"] == m.unit and printed[m.name] == (got["value"], m.unit)
            if workload in m.on and not m.name.endswith(".min"):
                assert got["value"] > 0, (workload, m.name, got)
        if trace == 0:
            for m in EXTRA:
                if workload in m.on:
                    assert printed[m.name][1] == UNITS[m.name], m.name


def test_benchmark_json_matches_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert got == [(m.name, m.unit, m.better) for m in declared], key


def test_chord_infer():
    check_workload("chord_infer")


def test_circle_infer():
    check_workload("circle_infer")


def test_explorer_scan():
    check_workload("explorer_scan")


def test_oracle_check():
    check_workload("oracle_check")


if __name__ == "__main__":
    test_benchmark_json_matches_metrics()
    for name in WORKLOADS:
        check_workload(name)
        print(f"{name}: ok")
