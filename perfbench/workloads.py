"""The four benchmark workloads.

Each workload builds its inputs from the seed, sets the library up
(``setup``, timed), then issues queries in rounds (``run_round``) through a
``Recorder`` until the run's time is up.  A round has a fixed, seed-determined
composition, so runs of different length measure the same mix of queries.
``check`` verifies the recorded results against a path independent of the
timed one, outside the timed phase.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from localhom import explorer, geometry, pipeline, relhom, scales

from gauge import EVERY_S

SQRT2 = math.sqrt(2.0)


class Recorder:
    """Times each query and keeps its result for the checks and the digest.

    With a ``gauge``, each query's time is also kept scaled to the nominal
    machine speed (see gauge.py).  While ``tracer`` is set, each query also
    opens the root span that the library's spans nest under, tagged with
    the query's id.
    """

    def __init__(self, gauge=None, tracer=None):
        self.gauge = gauge
        self.tracer = tracer
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.records: List[tuple] = []

    def timed(self, key, fn, *args, **kwargs):
        gauge, tracer = self.gauge, self.tracer
        if gauge is not None:
            gauge.maybe_sample()
            factor = gauge.factor()
        if tracer is not None:
            tracer.query = len(self.records)
            sid = tracer.begin("bench.query")
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(sid)
                tracer.query = None
        self.latencies.append(dt)
        if gauge is not None:
            if dt >= EVERY_S:       # long query: average the speed before and after
                gauge.sample()
                factor = (factor + gauge.factor()) / 2
            self.scaled.append(dt * factor)
        self.records.append((key, out))
        return out


def ranks_of(out) -> dict:
    return out.ranks if hasattr(out, "ranks") else out


class TimedEngine:
    """Stands in for an ``ImageRankEngine`` where the library accepts one
    (``infer_all``, ``scan_alpha_section``) and sends each query through the
    recorder.  ``index`` maps a caller's point index to the engine's."""

    def __init__(self, engine, rec: Recorder, index=None, tag=None):
        self.engine = engine
        self.rec = rec
        self.index = index
        self.tag = tag

    def query_index(self, i, keep_detail=False):
        p = int(self.index[i]) if self.index is not None else i
        return self.rec.timed(p, self.engine.query_index, p,
                              keep_detail=keep_detail)

    def query(self, center, keep_detail=False, b1=None, b2=None):
        return self.rec.timed((self.tag, b1, b2), self.engine.query, center,
                              keep_detail=keep_detail, b1=b1, b2=b2)


@dataclass
class Round:
    index: int
    start: int           # slice of the recorder's records issued by the round
    stop: int
    info: Any = None
    error: Optional[str] = None
    wall: float = 0.0
    scaled_wall: float = 0.0     # wall time at nominal speed, gauge time left out
    factor: float = 1.0          # gauge factor over the round


@dataclass
class SizeQuery:
    """One query's inputs, for the size counters."""

    points: np.ndarray
    center: np.ndarray
    level1: tuple
    level2: tuple
    flavor: str
    lmax: int = 1


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.setup_repeats = 1

    def setup(self):
        """Everything before the first query; timed as setup_s."""
        raise NotImplementedError

    def plan(self, state) -> None:
        """Untimed choice of the query order."""

    def run_round(self, state, r: int, rec: Recorder):
        raise NotImplementedError

    def check(self, state, rounds: List[Round], rec: Recorder) -> int:
        """Number of recorded queries that fail the workload's check."""
        raise NotImplementedError

    def size_queries(self, state, rounds: List[Round], rec: Recorder) -> List[SizeQuery]:
        raise NotImplementedError


def _van_der_corput(r: int, base: int = 2) -> float:
    """r-th term of the van der Corput sequence: any base**k consecutive
    terms from 0 fall one in each interval [j, j+1) / base**k."""
    x, scale = 0.0, 1.0 / base
    while r:
        r, digit = divmod(r, base)
        x += scale * digit
        scale /= base
    return x


def _subsample(P: geometry.Sample, idx) -> geometry.Sample:
    tp = P.true_points[idx] if P.true_points is not None else None
    return geometry.Sample(points=P.points[idx], epsilon=P.epsilon,
                           noisy=P.noisy, seed=P.seed, true_points=tp,
                           shape_meta=P.shape_meta)


class ChordInfer(Workload):
    """Criterion-1 configuration: noisy circle-with-chord, Rips, q=2, lmax=1.

    Queries go to 16 strata of points ranked by how many points lie within
    the level-2 locality radius b2 + 2*a2 (a proxy for query cost).  Every
    round asks one point of each stratum, so each round has the same cost
    mix; the seed draws the sample and the offset within the strata.
    """

    name = "chord_infer"
    eps, n, noise = 0.018, 1500, 0.009
    levels = (0.018, 0.06, 0.175, 0.116)      # scale1, scale2, R, r

    def setup(self):
        K = geometry.circle_chord()
        P = geometry.generate_sample(K, self.eps, self.n, noise=self.noise,
                                     seed=self.seed)
        cc = scales.ScaleConstants(t=1, c=SQRT2)
        sc = scales.manual_scales(cc, self.eps, *self.levels)
        eng = pipeline.make_engine(P, sc, cc, q=2, lmax=1)
        return {"K": K, "P": P, "cc": cc, "sc": sc, "eng": eng}

    def plan(self, state):
        pts = state["P"].points
        sc = state["sc"]
        rad2 = (sc.ball_r + 2 * sc.scale2) ** 2
        local = np.array([int((((pts - p) ** 2).sum(-1) <= rad2).sum()) for p in pts])
        state["order"] = np.argsort(local, kind="stable")
        state["shift"] = float(np.random.default_rng([self.seed, 1]).uniform())

    def round_points(self, state, r):
        """Round r asks, in each of the strata, the point at offset
        (vdc(r) + shift) within the stratum, where vdc is the base-2 van der
        Corput sequence: any 2**k rounds sample every stratum evenly."""
        order, nstrata = state["order"], 4 if self.smoke else 16
        u = (_van_der_corput(r) + state["shift"]) % 1.0
        pick = [int(order[int((k + u) * len(order) / nstrata)]) for k in range(nstrata)]
        perm = np.random.default_rng([self.seed, 2, r]).permutation(nstrata)
        return [pick[k] for k in perm], pick

    def run_round(self, state, r, rec):
        idx, _ = self.round_points(state, r)
        sub = _subsample(state["P"], idx)
        results = pipeline.infer_all(sub, state["sc"], state["cc"],
                                     engine=TimedEngine(state["eng"], rec, idx))
        pipeline.classify(sub, results, state["K"], state["sc"])
        return None

    def _spec(self, state, p):
        sc = state["sc"]
        return relhom.QuerySpec(p, (sc.scale1, sc.ball_R), (sc.scale2, sc.ball_r),
                                flavor=state["cc"].flavor, q=2, lmax=1)

    def check(self, state, rounds, rec):
        """Engine ranks against ``image_rank`` for one point per round, the
        stratum rotating from round to round."""
        bad = 0
        pts = state["P"].points
        for rd in rounds:
            if rd.error:
                continue
            _, pick = self.round_points(state, rd.index)
            p = pick[(5 * rd.index) % len(pick)]
            got = [ranks_of(out) for key, out in rec.records[rd.start:rd.stop]
                   if key == p]
            want = relhom.image_rank(self._spec(state, p), pts).ranks
            bad += sum(1 for g in got if g != want)
        return bad

    def size_queries(self, state, rounds, rec):
        _, pick = self.round_points(state, 0)
        sc = state["sc"]
        pts = state["P"].points
        return [SizeQuery(pts, pts[p], (sc.scale1, sc.ball_R),
                          (sc.scale2, sc.ball_r), state["cc"].flavor)
                for p in pick[::3]]


class CircleInfer(Workload):
    """Criterion-2 configuration: noise-free unit circle, n=150, eps=0.05.

    The seed rotates the sample about the centre, which keeps it an
    eps-sample.  A round is ``infer_all`` + ``classify`` on every point;
    every fourth round, from the first, then runs ``group_strata``, whose
    time is reported as group_s and left out of the query rate.
    """

    name = "circle_infer"
    setup_repeats = 5
    eps, n = 0.05, 150
    group_every = 4

    def setup(self):
        K = geometry.circle()
        P0 = geometry.generate_sample(K, self.eps, self.n)
        th = float(np.random.default_rng(self.seed).uniform(0.0, 2 * math.pi))
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        P = geometry.Sample(points=P0.points @ rot.T, epsilon=P0.epsilon,
                            noisy=False, seed=self.seed, shape_meta=P0.shape_meta)
        cc = scales.ScaleConstants(t=0, c=SQRT2)
        sc = scales.select_manifold(cc, self.eps, scales.ReachBound(nu=1.0),
                                    choice=(1.0, 0.5))
        eng = pipeline.make_engine(P, sc, cc, q=2, lmax=1)
        return {"K": K, "P": P, "cc": cc, "sc": sc, "eng": eng}

    def run_round(self, state, r, rec):
        P, sc, cc = state["P"], state["sc"], state["cc"]
        results = pipeline.infer_all(P, sc, cc, engine=TimedEngine(state["eng"], rec))
        report = pipeline.classify(P, results, state["K"], sc)
        info = {"accuracy": report.overall_accuracy, "groups": 1}
        if r % self.group_every == 0:
            t0 = time.perf_counter()
            info["groups"] = len(pipeline.group_strata(P, sc, cc))
            info["aside_s"] = time.perf_counter() - t0
        return info

    def check(self, state, rounds, rec):
        """Every signature is {0: 0, 1: 1}, accuracy is 1.0, one group."""
        bad = 0
        for rd in rounds:
            if rd.error:
                continue
            outs = rec.records[rd.start:rd.stop]
            if rd.info["accuracy"] != 1.0 or rd.info["groups"] != 1:
                bad += len(outs)
            else:
                bad += sum(1 for _, out in outs if ranks_of(out) != {0: 0, 1: 1})
        return bad

    def size_queries(self, state, rounds, rec):
        sc = state["sc"]
        pts = state["P"].points
        return [SizeQuery(pts, pts[p], (sc.scale1, sc.ball_R),
                          (sc.scale2, sc.ball_r), state["cc"].flavor)
                for p in range(0, len(pts), 25)]


class ExplorerScan(Workload):
    """Criterion-6-style (R, r) scans on circle-with-chord at (-1, 0).

    The seed picks the centre among the junction and the chord points within
    0.07 of it.  The arc points next to the junction are left out: at this
    grid their scans fail the nesting check, a limit of the empirical
    surrogate near a junction rather than a fault the benchmark should
    count.  A round is one scan per alpha, then ``section_properties`` on
    the pair.
    """

    name = "explorer_scan"
    setup_repeats = 5
    eps, dense_n = 0.05, 400
    alphas = (0.12, 0.2)

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.values = np.linspace(0.1, 1.0, 4 if smoke else 10)

    def setup(self):
        K = geometry.circle_chord()
        dense = K.even_points(self.dense_n)
        geometry.hausdorff(dense, K, grid=max(64, int(math.ceil(8.0 / self.eps))))
        engines = {a: relhom.ImageRankEngine(dense, (self.eps, float(self.values[-1])),
                                             (a, 0.0), flavor="rips", q=2, lmax=1)
                   for a in self.alphas}
        near = np.flatnonzero((np.abs(dense[:, 0] + 1.0) < 0.07) & (dense[:, 1] == 0.0))
        x = dense[int(np.random.default_rng(self.seed).choice(near))]
        return {"K": K, "dense": dense, "engines": engines, "x": x}

    def run_round(self, state, r, rec):
        scans = [explorer.scan_alpha_section(
                     state["K"], state["x"], a, self.eps, self.values,
                     engine=TimedEngine(state["engines"][a], rec, tag=a),
                     dense_points=state["dense"])
                 for a in self.alphas]
        props = explorer.section_properties(scans)
        return {"ok": props["interval_ok"] and props["nesting_ok"]}

    def check(self, state, rounds, rec):
        """``section_properties`` interval and nesting hold on every pair."""
        return sum(rd.stop - rd.start for rd in rounds
                   if not rd.error and not rd.info["ok"])

    def size_queries(self, state, rounds, rec):
        rd = rounds[0]
        cells = [key for key, _ in rec.records[rd.start:rd.stop]]
        step = max(1, len(cells) // 6)
        return [SizeQuery(state["dense"], state["x"], (self.eps, b1), (a, b2), "rips")
                for a, b1, b2 in cells[::step]]


class OracleCheck(Workload):
    """``localhom check`` on seeded random instances of 16-20 points.

    An instance (points, centre, scales, ball radii) is one query: it runs
    through both ``image_rank`` and ``image_rank_oracle`` under each
    (flavour, q) in {rips, cech} x {2, 3}.  The point count, scales and
    radii follow a shifted Halton sequence over narrow ranges, and the
    points are spread one per cell of a grid, so that query costs stay
    within a few-fold of each other and every run meets the same spread.
    """

    name = "oracle_check"
    setup_repeats = 5
    pool_size = 1024
    kinds = (("rips", 2), ("rips", 3), ("cech", 2), ("cech", 3))

    def setup(self):
        rng = np.random.default_rng(self.seed)
        shift = rng.uniform(size=5)
        pool = []
        for i in range(self.pool_size):
            u = [(_van_der_corput(i, base) + s) % 1.0
                 for base, s in zip((2, 3, 5, 7, 11), shift)]
            n = 16 + int(5 * u[0])
            a1 = 0.2 + 0.1 * u[1]
            a2 = a1 + 0.05 + 0.1 * u[2]
            b1 = 0.4 + 0.6 * u[3]
            b2 = b1 * (0.3 + 0.5 * u[4])
            m = math.ceil(math.sqrt(n))
            cells = rng.permutation(m * m)[:n]
            pts = (np.c_[cells % m, cells // m] + rng.uniform(size=(n, 2))) * (2.0 / m) - 1.0
            p = int(rng.integers(0, n))
            specs = [relhom.QuerySpec(p, (a1, b1), (a2, b2), flavor=flavor, q=q, lmax=1)
                     for flavor, q in self.kinds]
            pool.append((pts, specs))
        return {"pool": pool}

    @staticmethod
    def _check_instance(pts, specs):
        return tuple((relhom.image_rank(spec, pts).ranks,
                      relhom.image_rank_oracle(spec, pts).ranks) for spec in specs)

    def run_round(self, state, r, rec):
        i = r % len(state["pool"])
        rec.timed(i, self._check_instance, *state["pool"][i])

    def check(self, state, rounds, rec):
        """Direct ranks equal coned ranks for every (flavour, q)."""
        return sum(1 for rd in rounds if not rd.error
                   for _, pairs in rec.records[rd.start:rd.stop]
                   if any(d != o for d, o in pairs))

    def size_queries(self, state, rounds, rec):
        out = []
        for i, _ in rec.records[:8]:
            pts, specs = state["pool"][i]
            for spec in specs[::2]:      # one Rips and one Cech
                out.append(SizeQuery(pts, pts[spec.p], spec.level1, spec.level2,
                                     spec.flavor, spec.lmax))
        return out


BY_NAME = {w.name: w for w in (ChordInfer, CircleInfer, ExplorerScan, OracleCheck)}
