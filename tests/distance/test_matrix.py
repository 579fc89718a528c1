"""Parity tests for the shared distance-matrix engine.

The engine must be a pure optimization: the kernel-filled matrix equals
the naive per-pair double loop *bitwise*, the stats counters account
for every pair, and every clustering algorithm produces the same labels
whether it evaluates the callable itself or consumes a precomputed
matrix.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.clustering import (DBSCAN, OPTICS, SingleLinkage,
                              extract_dbscan, pairwise_matrix,
                              partitioned_dbscan)
from repro.core import AccessAreaExtractor, process_log
from repro.distance import DistanceMatrix, QueryDistance, condensed_index
from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.workload import WorkloadConfig, generate_workload

EPS = 0.12


@pytest.fixture(scope="module")
def population():
    """~60 extracted areas plus their statistics catalog."""
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=120, seed=47))
    report = process_log(workload.log.statements(),
                         AccessAreaExtractor(schema), keep_failures=False)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    for item in report.extracted:
        stats.observe_cnf(item.area.cnf)
    return report.areas()[:60], stats


def _metric(stats):
    return QueryDistance(stats, resolution=0.05)


# -- matrix vs naive loop ---------------------------------------------------

def test_serial_matrix_equals_naive_double_loop(population):
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    assert np.array_equal(matrix.to_square(), naive)


class _OverridingDistance(QueryDistance):
    """Overrides a distance component, so the kernel refuses it."""

    def d_disj(self, o1, o2):
        return super().d_disj(o1, o2)


def test_kernel_refusal_falls_back_per_pair(population):
    areas, stats = population
    registry = MetricsRegistry()
    matrix = DistanceMatrix.compute(
        areas, _OverridingDistance(stats, resolution=0.05),
        registry=registry)
    assert registry.counter(
        "repro_kernel_pairs_vectorized_total").value == 0
    assert registry.counter("repro_kernel_pairs_fallback_total").value > 0
    assert np.array_equal(matrix.to_square(),
                          pairwise_matrix(areas, _metric(stats)))


def test_stats_counters_account_for_every_pair(population):
    areas, stats = population
    n = len(areas)
    registry = MetricsRegistry()
    full = DistanceMatrix.compute(areas, _metric(stats), registry=registry)
    assert full.stats.pairs_total == n * (n - 1) // 2
    assert full.stats.pairs_computed == full.stats.pairs_total
    assert full.stats.pairs_skipped == 0
    # One kernel pack fills every pair; every cross-partition d_tables
    # lookup beyond one per partition pair reads the table.
    sizes = Counter(area.table_set for area in areas).values()
    in_partition = sum(m * (m - 1) // 2 for m in sizes)
    assert full.stats.table_pairs == len(sizes) * (len(sizes) - 1) // 2
    assert full.stats.table_cache_hits \
        == full.stats.pairs_total - in_partition - full.stats.table_pairs
    assert registry.counter(
        "repro_kernel_partitions_packed_total").value == 1
    vectorized = registry.counter(
        "repro_kernel_pairs_vectorized_total").value
    fallback = registry.counter("repro_kernel_pairs_fallback_total").value
    assert vectorized > 0
    assert vectorized + fallback == full.stats.pairs_total
    # The block-sparse layout still answers cross pairs by their bound.
    sparse = BlockSparseDistanceMatrix.compute(areas, _metric(stats),
                                               cutoff=EPS)
    assert sparse.stats.pairs_computed + sparse.stats.pairs_skipped \
        == sparse.stats.pairs_total
    assert 0.0 < sparse.stats.skip_fraction < 1.0
    assert "bound-skipped" in sparse.stats.summary()


def test_entries_past_the_partition_bound_are_exact(population):
    """The dense matrix holds every distance exactly, the cross-
    partition pairs whose ``d_tables`` alone exceeds the radius too."""
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    metric = _metric(stats)
    n = len(areas)
    past = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert matrix.value(i, j) == naive[i, j]
            past += metric.d_tables(areas[i], areas[j]) > EPS
    assert past > 0


def test_neighbors_match_naive_matrix(population):
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    for i in (0, 7, len(areas) - 1):
        expected = list(np.flatnonzero(naive[i] <= EPS))
        assert matrix.neighbors(i, EPS) == expected
        assert i in matrix.neighbors(i, EPS)


# -- accessors --------------------------------------------------------------

def test_lookup_accessors(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    n = len(matrix)
    assert n == len(areas)
    square = matrix.to_square()
    assert matrix.value(3, 9) == matrix.value(9, 3) == square[3, 9]
    assert matrix[5, 5] == 0.0
    assert np.array_equal(matrix.row(4), square[4])
    assert matrix.condensed.shape == (n * (n - 1) // 2,)
    with pytest.raises(ValueError):
        matrix.condensed[0] = 1.0  # read-only view
    roundtrip = DistanceMatrix.from_square(square)
    assert np.array_equal(roundtrip.condensed, matrix.condensed)


def test_submatrix_preserves_values(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    indices = [2, 11, 17, 40]
    sub = matrix.submatrix(indices)
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            assert sub.value(a, b) == matrix.value(ia, ib)


def _submatrix_by_pairs(matrix, indices):
    """The pair-by-pair copy ``submatrix`` replaced: the oracle."""
    m = len(indices)
    values = np.empty(m * (m - 1) // 2, dtype=float)
    pos = 0
    for a in range(m):
        for b in range(a + 1, m):
            values[pos] = matrix.value(indices[a], indices[b])
            pos += 1
    return values


def test_submatrix_gather_equals_pair_loop(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    rng = random.Random(5)
    n = len(matrix)
    for size in (0, 1, 2, 9, n):
        indices = rng.sample(range(n), size)
        if size >= 2:
            indices.append(indices[0])   # a repeated item is 0.0 apart
        want = _submatrix_by_pairs(matrix, indices)
        got = matrix.submatrix(indices)
        assert len(got) == len(indices)
        assert got.condensed.view(np.int64).tolist() \
            == want.view(np.int64).tolist()


def test_condensed_index_layout():
    n = 7
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            k = condensed_index(i, j, n)
            assert condensed_index(j, i, n) == k
            seen.add(k)
    assert seen == set(range(n * (n - 1) // 2))


def test_constructor_rejects_wrong_length():
    with pytest.raises(ValueError):
        DistanceMatrix(4, np.zeros(5))
    with pytest.raises(ValueError):
        DistanceMatrix.from_square(np.zeros((2, 3)))


def test_generic_metric_without_table_decomposition():
    """Plain callables (no d_tables/d_conj hooks) still work."""
    items = [0.0, 1.5, 4.0, 9.5]
    matrix = DistanceMatrix.compute(items, _absolute_difference)
    assert matrix.value(1, 3) == 8.0
    assert np.array_equal(matrix.to_square(),
                          pairwise_matrix(items, _absolute_difference))


def test_explicit_registry_bypasses_global():
    global_registry = MetricsRegistry()
    private = MetricsRegistry()
    items = [float(v) for v in range(8)]
    with use_registry(global_registry):
        DistanceMatrix.compute(items, _absolute_difference,
                               registry=private)
    assert global_registry.snapshot()["counters"] == []
    assert private.counter(
        "repro_distance_pairs_computed_total").value == 28


def _absolute_difference(a, b):
    return abs(a - b)


# -- clustering parity ------------------------------------------------------

def test_dbscan_labels_identical_with_matrix(population):
    areas, stats = population
    via_callable = DBSCAN(EPS, min_pts=3).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    via_matrix = DBSCAN(EPS, min_pts=3).fit(areas, matrix=matrix)
    assert via_matrix.labels == via_callable.labels


def test_optics_identical_with_matrix(population):
    areas, stats = population
    via_callable = OPTICS(max_eps=1.0, min_pts=3).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    via_matrix = OPTICS(max_eps=1.0, min_pts=3).fit(areas, matrix=matrix)
    assert via_matrix.ordering == via_callable.ordering
    assert via_matrix.reachability == via_callable.reachability
    assert extract_dbscan(via_matrix, EPS).labels \
        == extract_dbscan(via_callable, EPS).labels


def test_single_linkage_identical_with_matrix(population):
    areas, stats = population
    via_callable = SingleLinkage(threshold=EPS).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    via_matrix = SingleLinkage(threshold=EPS).fit(areas, matrix=matrix)
    assert via_matrix.labels == via_callable.labels


def test_partitioned_dbscan_identical_across_engines(population):
    areas, stats = population
    legacy = partitioned_dbscan(areas, _metric(stats), EPS, min_pts=3)
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    precomputed = partitioned_dbscan(areas, None, EPS, min_pts=3,
                                     matrix=matrix)
    assert precomputed.labels == legacy.labels


def test_clustering_argument_validation(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas[:6], _metric(stats))
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:6])  # neither distance nor matrix
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:6], _metric(stats), matrix)  # both
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:9], matrix=matrix)  # size mismatch
    with pytest.raises(ValueError):
        OPTICS(max_eps=1.0).fit(areas[:6])
    with pytest.raises(ValueError):
        SingleLinkage(threshold=EPS).fit(areas[:6])
    with pytest.raises(ValueError):
        partitioned_dbscan(areas[:6], None, EPS)


def test_pipeline_report_hands_off_matrix(population):
    """The batch path's hand-off: a matrix over a report's areas."""
    _, stats = population
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=40, seed=3))
    report = process_log(workload.log.statements(),
                         AccessAreaExtractor(schema), keep_failures=False)
    matrix = DistanceMatrix.compute(report.areas(), _metric(stats))
    assert len(matrix) == report.extraction_count
    assert matrix.stats.pairs_computed + matrix.stats.pairs_skipped \
        == matrix.stats.pairs_total
