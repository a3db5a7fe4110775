"""In-process tracing of localhom's public functions, from outside the library.

``Tracer.install`` rebinds each traced function in every ``localhom`` module
that holds it (``relhom.reduce_columns``, ``fieldla.reduce_columns``,
``explorer.hausdorff``, ...) and each traced method on its class, so calls
made inside the library are seen too.  ``uninstall`` puts the originals back.
Spans (name, start, end, parent, query id) stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: Optional[int]
    phase: str
    child_s: float = 0.0
    data: Any = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _count_simplices(args, kwargs, result):
    return sum(len(ss) for ss in result.simplices.values())


def _columns_and_pivots(args, kwargs, result):
    lows = result[0]
    return len(lows), sum(1 for low in lows if low >= 0)


# (span name, module, attribute, class attribute or None, result probe)
TARGETS = (
    ("geometry.generate_sample", "localhom.geometry", "generate_sample", None, None),
    ("geometry.hausdorff", "localhom.geometry", "hausdorff", None, None),
    ("complexes.build_complex", "localhom.complexes", "build_complex", None,
     _count_simplices),
    ("complexes.quotient_pair", "localhom.complexes", "quotient_pair", None, None),
    ("complexes.cone_pair", "localhom.complexes", "cone_pair", None, None),
    ("relhom.engine_build", "localhom.relhom", "ImageRankEngine", "__init__", None),
    ("relhom.query", "localhom.relhom", "ImageRankEngine", "query", None),
    ("relhom.image_rank", "localhom.relhom", "image_rank", None, None),
    ("relhom.oracle", "localhom.relhom", "image_rank_oracle", None, None),
    ("fieldla.reduce_columns", "localhom.fieldla", "reduce_columns", None,
     _columns_and_pivots),
    ("fieldla.persistent_reduce", "localhom.fieldla", "persistent_reduce", None, None),
    ("pipeline.infer_all", "localhom.pipeline", "infer_all", None, None),
    ("pipeline.classify", "localhom.pipeline", "classify", None, None),
    ("pipeline.group_strata", "localhom.pipeline", "group_strata", None, None),
    ("explorer.scan", "localhom.explorer", "scan_alpha_section", None, None),
    ("explorer.section_properties", "localhom.explorer", "section_properties",
     None, None),
)


class Tracer:
    """Records nested spans around the traced functions while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.query: Optional[int] = None
        self.phase = "setup"
        self._saved: List[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.query, self.phase))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur

    def _wrap(self, name: str, fn: Callable, probe) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if probe is not None:
                tracer.spans[sid].data = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "localhom" or k.startswith("localhom."))]
        for name, modname, attr, method, probe in TARGETS:
            owner = getattr(sys.modules[modname], attr)
            if method is not None:
                orig = owner.__dict__[method]
                self._saved.append((owner, method, orig))
                setattr(owner, method, self._wrap(name, orig, probe))
                continue
            wrapped = self._wrap(name, owner, probe)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is owner:
                        self._saved.append((mod, key, owner))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._saved):
            setattr(obj, key, orig)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.query,
                                     s.phase]) + "\n")

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, n_queries: int) -> Dict[str, float]:
        """Per-layer metrics (see metrics.PER_LAYER) from the recorded spans."""
        setup: Dict[str, List[Span]] = {}
        run: Dict[str, List[Span]] = {}
        for s in self.spans:
            (setup if s.phase == "setup" else run).setdefault(s.name, []).append(s)

        def setup_total(name):
            return sum((s.dur for s in setup.get(name, ())), 0.0)

        def per_query(name, scale=1e3):
            spans = [s for s in run.get(name, ()) if s.query is not None]
            return scale * sum(s.dur for s in spans) / max(n_queries, 1)

        def median_call(name, attr="dur", scale=1.0):
            vals = [getattr(s, attr) for s in run.get(name, ())]
            return scale * statistics.median(vals) if vals else 0.0

        reduces = [s for s in run.get("fieldla.reduce_columns", ())
                   if s.query is not None]
        cols = sum(s.data[0] for s in reduces)
        pivots = sum(s.data[1] for s in reduces)
        nq = max(n_queries, 1)
        return {
            "geometry.generate_sample_s": setup_total("geometry.generate_sample"),
            "geometry.hausdorff_s": setup_total("geometry.hausdorff"),
            "complexes.build_complex_s": setup_total("complexes.build_complex"),
            "complexes.simplices_built": sum(
                s.data for s in setup.get("complexes.build_complex", ())),
            "complexes.quotient_pair_ms": per_query("complexes.quotient_pair"),
            "complexes.cone_pair_ms": per_query("complexes.cone_pair"),
            "relhom.engine_build_s": setup_total("relhom.engine_build"),
            "relhom.query_self_ms": median_call("relhom.query", "self_s", 1e3),
            "relhom.queries": len(run.get("relhom.query", ())) / nq,
            "relhom.image_rank_ms": per_query("relhom.image_rank"),
            "relhom.oracle_ms": per_query("relhom.oracle"),
            "fieldla.reduce_ms": per_query("fieldla.reduce_columns"),
            "fieldla.reduce_calls": len(reduces) / nq,
            "fieldla.columns_reduced": cols / nq,
            "fieldla.pivot_ratio": pivots / cols if cols else 0.0,
            "fieldla.persistent_reduce_ms": per_query("fieldla.persistent_reduce"),
            "pipeline.infer_all_s": median_call("pipeline.infer_all"),
            "pipeline.classify_s": median_call("pipeline.classify"),
            "pipeline.group_strata_s": median_call("pipeline.group_strata"),
            "explorer.scan_s": median_call("explorer.scan"),
            "explorer.section_properties_s": median_call("explorer.section_properties"),
        }
