"""Sustained incremental-clustering ingest at stream scale.

The stream scenario's viability hangs on per-arrival cost staying flat
as the population grows: interned repeats must stay O(1) (a fingerprint
hit, a weight bump, at most a local core promotion), and genuinely new
areas must touch only their partition of the distance backend — never
the full population.  This benchmark drives
:class:`~repro.clustering.incremental.IncrementalDBSCAN` (block-sparse
backend) with a SkyServer-shaped arrival stream — Zipf-skewed repeats
over a pool of window templates on three hot axes, one partition per
relation — and records per-segment ingest rates plus the split between
the hit and insert paths.

Sublinearity evidence in ``benchmarks/out/BENCH_streaming.json``:

* segment throughput (``arrivals_per_second``) must not decay as the
  population grows — a per-arrival cost linear in n would slow the
  final segment ~5-10× relative to the early ones;
* ``final_over_early_cost_ratio`` pins that directly (and is watched
  by the perf guard, direction up);
* end-state labels are checked against a from-scratch batch weighted
  DBSCAN over the unique population — the throughput being measured is
  of the *exact* maintenance, not an approximation.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the stream ~20×.
"""

import json
import os
import random
import time

from repro.algebra.cnf import CNF, Clause
from repro.algebra.predicates import ColumnConstantPredicate, ColumnRef, Op
from repro.clustering import DBSCAN, IncrementalDBSCAN
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.obs.metrics import MetricsRegistry
from repro.schema import StatisticsCatalog
from repro.schema.skyserver import CONTENT_BOUNDS, skyserver_schema

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_ARRIVALS = 5_000 if SMOKE else 100_000
N_SEGMENTS = 10
EPS = 0.12
MIN_PTS = 5

TEMPLATE_AXES = (
    ("PhotoObjAll", "ra", 0.0, 360.0),
    ("SpecObjAll", "z", 0.0, 2.0),
    ("Photoz", "z", 0.0, 2.0),
)
TEMPLATES_PER_AXIS = 30 if SMOKE else 400


def _window(relation, column, lo, hi):
    ref = ColumnRef(relation, column)
    return AccessArea((relation,), CNF.of([
        Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
        Clause.of([ColumnConstantPredicate(ref, Op.LE, hi)]),
    ]))


def make_stream(seed=43):
    rng = random.Random(seed)
    pool = []
    for relation, column, lo0, hi0 in TEMPLATE_AXES:
        span = hi0 - lo0
        for _ in range(TEMPLATES_PER_AXIS):
            lo = lo0 + rng.random() * span * 0.8
            pool.append(_window(relation, column, lo, lo + span * 0.1))
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=N_ARRIVALS)


def test_sustained_ingest(benchmark, out_dir):
    schema = skyserver_schema()
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    metric = QueryDistance(stats)
    stream = make_stream()

    registry = MetricsRegistry()
    clusterer = IncrementalDBSCAN(metric, eps=EPS, min_pts=MIN_PTS,
                                  registry=registry)
    segment_size = len(stream) // N_SEGMENTS
    segments = []

    def run():
        for s in range(N_SEGMENTS):
            chunk = stream[s * segment_size:(s + 1) * segment_size]
            hits_before = clusterer.interned_hits
            started = time.perf_counter()
            for area in chunk:
                clusterer.add(area)
            elapsed = time.perf_counter() - started
            segments.append({
                "segment": s,
                "arrivals": len(chunk),
                "population_after": clusterer.n_unique,
                "interned_hits": clusterer.interned_hits - hits_before,
                "seconds": elapsed,
                "arrivals_per_second": len(chunk) / elapsed,
            })
        return clusterer

    benchmark.pedantic(run, rounds=1, iterations=1)

    total_seconds = sum(s["seconds"] for s in segments)
    hist = registry.histogram("repro_incremental_update_seconds")
    # Per-arrival cost trend: the final segment (population saturated,
    # nearly all hits) against the second (population still growing).
    # Linear-in-n maintenance would put this ratio at ~N_SEGMENTS.
    early = segments[1]["seconds"] / segments[1]["arrivals"]
    late = segments[-1]["seconds"] / segments[-1]["arrivals"]
    ratio = late / early

    # Exactness: the measured throughput maintains the *batch* answer.
    matrix = BlockSparseDistanceMatrix.compute(clusterer.areas(), metric)
    batch = DBSCAN(eps=EPS, min_pts=MIN_PTS).fit(
        clusterer.areas(), matrix=matrix, weights=clusterer.weights())
    assert clusterer.labels() == list(batch.labels)

    payload = {
        "n_arrivals": len(stream),
        "n_unique": clusterer.n_unique,
        "n_clusters": clusterer.n_clusters,
        "dedup_ratio": len(stream) / clusterer.n_unique,
        "eps": EPS,
        "min_pts": MIN_PTS,
        "backend": clusterer.backend_name,
        "ingest_seconds_total": total_seconds,
        "arrivals_per_second": len(stream) / total_seconds,
        "update_seconds_p50": hist.p50,
        "update_seconds_p99": hist.p99,
        "final_over_early_cost_ratio": ratio,
        "batch_parity": True,
        "smoke": SMOKE,
        "segments": segments,
    }
    (out_dir / "BENCH_streaming.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8")
    print(f"\n{len(stream):,} arrivals -> {clusterer.n_unique} unique, "
          f"{clusterer.n_clusters} clusters; "
          f"{payload['arrivals_per_second']:,.0f} arrivals/s, "
          f"late/early per-arrival cost ratio {ratio:.2f}")

    assert clusterer.interned_hits == len(stream) - clusterer.n_unique
    # Sublinear-update acceptance: per-arrival cost must not grow with
    # population.  Allow generous CI noise; linear maintenance would
    # sit near N_SEGMENTS.
    assert ratio < 2.0, (
        f"per-arrival cost grew {ratio:.1f}x from early to late stream "
        f"segments — incremental updates are not sublinear")
