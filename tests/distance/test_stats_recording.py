"""Regression: ``.record`` must be idempotent, not cumulative-additive.

``MatrixStats``/``KernelStats`` carry *cumulative*
totals, and their ``record`` used to ``inc`` those totals into the
registry wholesale — so recording twice (one resident process, one
scrape per request) doubled every counter.  Recording is now
delta-based: after any number of ``record`` calls the registry equals
the true totals.
"""

import pytest

from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.distance.query_distance import QueryDistance
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def population(stats):
    from repro.core.extractor import AccessAreaExtractor

    extractor = AccessAreaExtractor(stats.schema)
    sqls = [
        "SELECT a FROM T WHERE a > 0 AND a < 1",
        "SELECT a FROM T WHERE a > 0.5 AND a < 1.5",
        "SELECT a FROM T WHERE a > 3 AND a < 4",
        "SELECT b FROM S WHERE b < 2",
        "SELECT b FROM S WHERE b > 7",
    ]
    return [extractor.extract(sql).area for sql in sqls]


def _counters(registry, prefix):
    return {c["name"]: c["value"]
            for c in registry.snapshot()["counters"]
            if c["name"].startswith(prefix)}


def test_matrix_stats_record_twice_equals_true_totals(population,
                                                      stats):
    distance = QueryDistance(stats, resolution=0.05)
    matrix = BlockSparseDistanceMatrix.compute(population, distance,
                                               cutoff=0.2)
    registry = MetricsRegistry()
    matrix.stats.record(registry)
    once = _counters(registry, "repro_distance_")
    assert once  # the family did land
    matrix.stats.record(registry)
    assert _counters(registry, "repro_distance_") == once
    seconds = registry.histogram("repro_distance_matrix_seconds")
    assert seconds.stats.count == 1


def test_kernel_stats_record_twice_equals_true_totals():
    from repro.distance.kernel import KernelStats

    kernel = KernelStats(partitions_packed=3, partitions_fallback=1,
                         n_predicates=12, n_clauses=7,
                         pairs_vectorized=40, pairs_fallback=5,
                         pack_seconds=0.25, block_seconds=0.75)
    registry = MetricsRegistry()
    kernel.record(registry)
    once = _counters(registry, "repro_kernel_")
    assert once["repro_kernel_partitions_packed_total"] == 3
    kernel.record(registry)
    assert _counters(registry, "repro_kernel_") == once
    # a later run's growth lands as its delta
    kernel.partitions_packed += 2
    kernel.record(registry)
    assert _counters(registry, "repro_kernel_")[
        "repro_kernel_partitions_packed_total"] == 5


def test_two_runs_accumulate_their_deltas(population, stats):
    """Distinct stats objects still sum into one registry — the
    fleet-wide view stays additive across runs."""
    registry = MetricsRegistry()
    # fresh metric per run: QueryDistance memo caches would otherwise
    # shift the second run's hit/miss split
    m1 = BlockSparseDistanceMatrix.compute(
        population, QueryDistance(stats, resolution=0.05), cutoff=0.2)
    m1.stats.record(registry)
    once = _counters(registry, "repro_distance_")
    m2 = BlockSparseDistanceMatrix.compute(
        population, QueryDistance(stats, resolution=0.05), cutoff=0.2)
    m2.stats.record(registry)
    twice = _counters(registry, "repro_distance_")
    for name, value in once.items():
        assert twice[name] == pytest.approx(2 * value)
