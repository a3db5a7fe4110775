"""Metric names, units and the map from per-layer metrics to the end-to-end
metric and workload each one should move.

The end-to-end metrics come from an untraced run; the per-layer metrics come
only from a traced run (``--trace 1``).  ``BENCHMARK.json`` lists the same
names; this module also records, for each layer metric, which end-to-end
metric it should move on which workload, so that a change to one layer can
be checked against the numbers it claims to move.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

WORKLOADS = ("chord_infer", "circle_infer", "explorer_scan", "oracle_check")
ALL = WORKLOADS

# The GF(2) kernel the baseline was measured with.  A run on another kernel
# is flagged, because numbers from the two kernels are not comparable.
BASELINE_KERNEL = "python"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    # end-to-end metric -> workloads on which this metric should move it
    moves: Dict[str, Tuple[str, ...]] = {}
    # workloads on which the metric measures work (it reads 0 elsewhere)
    on: Tuple[str, ...] = ()


# Every workload reports these, from the untraced run.  A query is one engine
# query (chord_infer, circle_infer), one explorer grid cell (explorer_scan) or
# one checked oracle instance (oracle_check).
END_TO_END = (
    Metric("setup_s", "s", "lower", on=ALL),
    Metric("queries_per_s", "1/s", "higher", on=ALL),
    Metric("peak_rss_mb", "MB", "lower", on=ALL),
)

# Printed beside the result line but not part of it, so they carry no bound.
# The latency percentiles spread by 0.1 and more between runs: explorer_scan's
# and oracle_check's latencies cluster by scan and by instance size, and the
# median falls between the clusters; chord_infer's p90 rests on its few
# junction queries.  group_s exists on one workload only, and failed_frac is
# 0 on a correct run (the result line carries it as failed / attempted).
EXTRA = (
    Metric("query_p50_ms", "ms", "lower", on=ALL),
    Metric("query_p90_ms", "ms", "lower", on=ALL),
    Metric("group_s", "s", "lower", on=("circle_infer",)),
    Metric("failed_frac", "ratio", "lower", on=ALL),
)

_SETUP_ENGINE = ("chord_infer", "circle_infer", "explorer_scan")


def _sizes():
    out = []
    stats = ("min", "median", "max")
    for s in stats:
        out.append(Metric(f"relhom.local_vertices.{s}", "count", "lower", on=ALL))
    for level, degrees in (("level1", (0, 1)), ("level2", (0, 1, 2))):
        for d in degrees:
            for s in stats:
                out.append(Metric(f"relhom.{level}_basis_simplices.d{d}.{s}",
                                  "count", "lower", on=ALL))
    return tuple(out)


# Reported by the traced run.  Units: "s" and "ms" are inclusive durations
# (totals over the traced set-up for set-up metrics, medians per call
# otherwise); "/query" units are means over the bench's queries.
PER_LAYER = (
    Metric("geometry.generate_sample_s", "s", "lower",
           {"setup_s": ("chord_infer", "circle_infer")},
           on=("chord_infer", "circle_infer")),
    Metric("geometry.hausdorff_s", "s", "lower",
           {"setup_s": ("explorer_scan",)}, on=_SETUP_ENGINE),
    Metric("complexes.build_complex_s", "s", "lower",
           {"setup_s": ("chord_infer",), "peak_rss_mb": ("chord_infer",)},
           on=_SETUP_ENGINE),
    Metric("complexes.simplices_built", "count", "lower",
           {"setup_s": ("chord_infer",), "peak_rss_mb": ("chord_infer",)},
           on=_SETUP_ENGINE),
    Metric("complexes.quotient_pair_ms", "ms/query", "lower",
           {"queries_per_s": ("oracle_check",)}, on=("oracle_check",)),
    Metric("complexes.cone_pair_ms", "ms/query", "lower",
           {"queries_per_s": ("oracle_check",)}, on=("oracle_check",)),
    Metric("relhom.engine_build_s", "s", "lower",
           {"setup_s": ("chord_infer", "explorer_scan"),
            "peak_rss_mb": ("chord_infer", "explorer_scan")},
           on=_SETUP_ENGINE),
    Metric("relhom.query_self_ms", "ms", "lower",
           {"query_p50_ms": ("chord_infer", "circle_infer")},
           on=_SETUP_ENGINE),
    Metric("relhom.queries", "calls/query", "lower", on=_SETUP_ENGINE),
    Metric("relhom.image_rank_ms", "ms/query", "lower",
           {"queries_per_s": ("oracle_check",)}, on=("oracle_check",)),
    Metric("relhom.oracle_ms", "ms/query", "lower",
           {"queries_per_s": ("oracle_check",)}, on=("oracle_check",)),
) + _sizes() + tuple(
    Metric(name, unit, better,
           {"query_p50_ms": ("chord_infer", "circle_infer"),
            "query_p90_ms": ("chord_infer", "circle_infer"),
            "queries_per_s": ("chord_infer", "circle_infer")}, on=ALL)
    for name, unit, better in (
        ("fieldla.reduce_ms", "ms/query", "lower"),
        ("fieldla.reduce_calls", "calls/query", "lower"),
        ("fieldla.columns_reduced", "columns/query", "lower"),
        ("fieldla.pivot_ratio", "ratio", "higher"),
    )
) + (
    Metric("fieldla.persistent_reduce_ms", "ms/query", "lower",
           {"queries_per_s": ("oracle_check",)}, on=("oracle_check",)),
    Metric("pipeline.infer_all_s", "s", "lower",
           {"queries_per_s": ("circle_infer", "chord_infer")},
           on=("chord_infer", "circle_infer")),
    Metric("pipeline.classify_s", "s", "lower",
           {"queries_per_s": ("circle_infer", "chord_infer")},
           on=("chord_infer", "circle_infer")),
    Metric("pipeline.group_strata_s", "s", "lower",
           {"group_s": ("circle_infer",)}, on=("circle_infer",)),
    Metric("explorer.scan_s", "s", "lower",
           {"queries_per_s": ("explorer_scan",)}, on=("explorer_scan",)),
    Metric("explorer.section_properties_s", "s", "lower",
           {"queries_per_s": ("explorer_scan",)}, on=("explorer_scan",)),
    # traced minus untraced wall time of the same queries; may read below 0
    # when the tracer costs less than the run-to-run noise
    Metric("trace.overhead_s", "s", "lower", on=()),
)

UNITS = {m.name: m.unit for m in END_TO_END + EXTRA + PER_LAYER}
