import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import localhom
from localhom.fieldla import rank, reduce_columns

tomllib = pytest.importorskip("tomllib")


def test_pyproject_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert project["name"] == "localhom"
    assert project["version"] == localhom.__version__
    assert not any("numba" in dep for dep in project["dependencies"])


def test_perfbench_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer rebinds these names; a rename in the library
    # would otherwise only show in the benchmark's own smoke test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for name, modname, attr, method, probe in tracer.TARGETS:
        owner = getattr(importlib.import_module(modname), attr)
        assert callable(owner if method is None else owner.__dict__[method]), name
    assert tracer._columns_and_pivots((), {}, reduce_columns([1, 1, 2], 2)) == (3, 2)
    t = tracer.Tracer()
    t.install()
    try:
        assert rank([1, 1, 2], 2) == 2
    finally:
        t.uninstall()
    assert [(s.name, s.data) for s in t.spans] == [("fieldla.reduce_columns", (3, 2))]


def test_bench_pairs_counts_runs_without_result(capsys):
    # a crashed run has no metrics, so its pair drops out of the summary; it
    # must still be counted, and its workload must claim no gain
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    seeds = list(range(10))
    ok = {"attempted": 5, "correct": 5, "failed": 0}
    runs = {s: {"parent": {"w": dict(ok, qps=100.0 + s), "gone": dict(ok, qps=1.0)},
                "change": {"w": dict(ok, qps=200.0 + s) if s else {"returncode": 1},
                           "gone": {"returncode": 1}}}
            for s in seeds}
    metric = {"name": "qps", "better": "higher", "bound": 0.2}
    out = bench.summarise(runs, seeds, ["w", "gone"], [metric])
    assert out["w"]["runs_without_result"] == {"parent": 0, "change": 1}
    assert out["w"]["metrics"]["qps"]["change_wins"] == "9/9"
    assert not out["w"]["metrics"]["qps"]["gain"]
    assert out["gone"]["runs_without_result"] == {"parent": 0, "change": 10}
    assert out["gone"]["metrics"] == {}
    bench.report(out)
    assert "runs without a result {'parent': 0, 'change': 10}" in capsys.readouterr().out
