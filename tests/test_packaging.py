import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import localhom
from localhom import relhom
from localhom.fieldla import rank, reduce_columns
from localhom.relhom import QuerySpec

ROOT = Path(__file__).resolve().parents[1]

tomllib = pytest.importorskip("tomllib")


def test_pyproject_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert project["name"] == "localhom"
    assert project["version"] == localhom.__version__
    assert not any("numba" in dep for dep in project["dependencies"])


def _unused_imports(source: str) -> list:
    """The names that a module imports and never reads.  A name is read
    where it is an ``ast.Name``, the head of an attribute chain included,
    or where a string annotation names it."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Dict, List, Optional\n"
              "import numpy as np\n"
              "def f(x: Dict) -> 'List[int]':\n"
              "    return np.asarray(sys.argv)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "Optional")]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "localhom").glob("*.py")
                                          if p.name != "__init__.py"))
def test_library_module_has_no_unused_import(module):
    # stdlib ast, so the check needs no linter; __init__.py imports in order
    # to re-export
    source = (ROOT / "src" / "localhom" / module).read_text()
    assert _unused_imports(source) == []


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


def test_traced_spans_of_the_oracle_and_engine_layers(monkeypatch):
    # the smoke test's per-layer metrics read these spans, nested so; a
    # refactor that stops calling one through its module attribute would
    # otherwise only show in that 30 s test
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    # 20 points on the unit circle, where every query sees H_1 = 1
    theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    pts = np.c_[np.cos(theta), np.sin(theta)]
    t = tracer.Tracer()
    t.install()
    try:
        for flavor, q in (("rips", 2), ("rips", 3), ("cech", 2), ("cech", 3)):
            query = QuerySpec(0, (0.2, 0.9), (0.3, 0.6), flavor=flavor, q=q)
            # through the module, as the benchmark calls them
            assert relhom.image_rank(query, pts).ranks == \
                relhom.image_rank_oracle(query, pts).ranks == {0: 0, 1: 1}
        assert relhom.ImageRankEngine(pts, (0.2, 0.9), (0.3, 0.6)).query(pts[0]).ranks == \
            {0: 0, 1: 1}
    finally:
        t.uninstall()
    edges = {(t.spans[s.parent].name if s.parent >= 0 else None, s.name) for s in t.spans}
    assert {("relhom.image_rank", "complexes.quotient_pair"),
            ("relhom.oracle", "complexes.cone_pair"),
            ("relhom.oracle", "fieldla.persistent_reduce"),
            ("fieldla.persistent_reduce", "fieldla.reduce_columns"),
            ("relhom.query", "fieldla.reduce_columns")} <= edges
    assert {(None, "relhom.image_rank"), (None, "relhom.oracle"),
            (None, "relhom.query")} <= edges


def test_shared_ranks_digest_as_plain_dicts(monkeypatch):
    # perfbench's digest of round 1 must not see the shared read-only ranks
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    known = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        pts = np.random.default_rng(5).uniform(-1, 1, (12, 2))
        query = QuerySpec(3, (0.3, 0.9), (0.4, 0.6), q=3)
        shared = (relhom.image_rank(query, pts).ranks,
                  relhom.image_rank_oracle(query, pts).ranks)
        plain = tuple(dict(r) for r in shared)
        assert type(plain[0]) is dict and type(shared[0]) is not dict
        assert run.digest([(0, shared)]) == run.digest([(0, plain)])
    finally:
        for name in set(sys.modules) - known:
            if name in ("gauge", "metrics", "tracer", "workloads"):
                del sys.modules[name]


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
