"""BlockSparseDistanceMatrix: dense parity, bound semantics, stats."""

import math

import numpy as np
import pytest

from repro.algebra.cnf import CNF, Clause
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import DBSCAN, OPTICS, SingleLinkage, partitioned_dbscan
from repro.core.area import AccessArea
from repro.core.extractor import AccessAreaExtractor
from repro.distance import (BlockSparseDistanceMatrix, DistanceMatrix,
                            QueryDistance, compute_matrix,
                            partition_exactness_bound)
from repro.schema import StatisticsCatalog
from repro.schema.skyserver import CONTENT_BOUNDS, skyserver_schema
from repro.workload import WorkloadConfig, generate_workload

EPS = 0.12


@pytest.fixture(scope="module")
def population():
    """(areas, metric) extracted from a small synthetic workload."""
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=260, seed=41))
    extractor = AccessAreaExtractor(schema)
    areas = []
    for sql in workload.log.statements():
        try:
            areas.append(extractor.extract(sql).area)
        except Exception:
            continue
        if len(areas) == 160:
            break
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    for area in areas:
        stats.observe_cnf(area.cnf)
    return areas, QueryDistance(stats)


@pytest.fixture(scope="module")
def dense(population):
    areas, metric = population
    return DistanceMatrix.compute(areas, metric)


@pytest.fixture(scope="module")
def sparse(population):
    areas, metric = population
    return BlockSparseDistanceMatrix.compute(areas, metric, cutoff=EPS)


class TestLookupParity:
    def test_len(self, population, sparse):
        assert len(sparse) == len(population[0])

    def test_within_partition_values_bitwise_equal(self, population,
                                                   dense, sparse):
        areas, _ = population
        n = len(areas)
        checked = 0
        for i in range(n):
            for j in range(i + 1, n):
                if areas[i].table_set == areas[j].table_set:
                    assert sparse.value(i, j) == dense.value(i, j)
                    checked += 1
        assert checked > 0

    def test_cross_partition_is_d_tables_lower_bound(self, population,
                                                     dense, sparse):
        areas, metric = population
        n = len(areas)
        for i in range(0, n, 7):
            for j in range(i + 1, n, 11):
                if areas[i].table_set != areas[j].table_set:
                    expected = metric.d_tables(areas[i], areas[j])
                    assert sparse.value(i, j) == expected
                    assert sparse.value(i, j) <= dense.value(i, j) + 1e-12
                    assert sparse.value(i, j) >= sparse.exactness_bound

    def test_diagonal_and_symmetry(self, sparse):
        assert sparse.value(3, 3) == 0.0
        assert sparse.value(2, 9) == sparse.value(9, 2)
        assert sparse[2, 9] == sparse.value(2, 9)

    def test_row_matches_values(self, sparse):
        for i in (0, 5, len(sparse) - 1):
            row = sparse.row(i)
            assert len(row) == len(sparse)
            assert row[i] == 0.0
            for j in range(0, len(sparse), 13):
                assert row[j] == sparse.value(i, j)

    def test_neighbors_match_dense(self, dense, sparse):
        for i in range(0, len(sparse), 9):
            assert sparse.neighbors(i, EPS) == dense.neighbors(i, EPS)

    def test_neighbors_rejects_radius_at_bound(self, sparse):
        with pytest.raises(ValueError, match="exactness bound"):
            sparse.neighbors(0, sparse.exactness_bound)

    def test_submatrix_within_partition_exact(self, population, dense,
                                              sparse):
        areas, _ = population
        key = max({a.table_set for a in areas},
                  key=lambda k: sum(a.table_set == k for a in areas))
        indices = [i for i, a in enumerate(areas) if a.table_set == key]
        sub_sparse = sparse.submatrix(indices)
        sub_dense = dense.submatrix(indices)
        m = len(indices)
        for a in range(m):
            for b in range(a + 1, m):
                assert sub_sparse.value(a, b) == sub_dense.value(a, b)

    def test_submatrix_mixed_partitions(self, sparse):
        indices = list(range(0, len(sparse), 10))
        sub = sparse.submatrix(indices)
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                assert sub.value(a, b) == sparse.value(indices[a],
                                                       indices[b])

    def test_to_square_symmetric(self, sparse):
        square = sparse.to_square()
        assert square.shape == (len(sparse), len(sparse))
        assert np.allclose(square, square.T)
        assert np.all(np.diag(square) == 0.0)


class TestClusteringParity:
    """Dense and sparse matrices must give identical labels below the bound."""

    def test_dbscan(self, population, dense, sparse):
        areas, _ = population
        a = DBSCAN(EPS, 4).fit(areas, matrix=dense)
        b = DBSCAN(EPS, 4).fit(areas, matrix=sparse)
        assert a.labels == b.labels

    def test_partitioned_dbscan(self, population, dense, sparse):
        areas, metric = population
        a = partitioned_dbscan(areas, metric, EPS, 4, matrix=dense)
        b = partitioned_dbscan(areas, metric, EPS, 4, matrix=sparse)
        assert a.labels == b.labels

    def test_optics(self, population, dense, sparse):
        areas, _ = population
        a = OPTICS(max_eps=EPS, min_pts=4).fit(areas, matrix=dense)
        b = OPTICS(max_eps=EPS, min_pts=4).fit(areas, matrix=sparse)
        assert a.ordering == b.ordering
        assert a.reachability == b.reachability

    def test_single_linkage(self, population, dense, sparse):
        areas, _ = population
        a = SingleLinkage(threshold=EPS, min_size=3).fit(areas,
                                                         matrix=dense)
        b = SingleLinkage(threshold=EPS, min_size=3).fit(areas,
                                                         matrix=sparse)
        assert a.labels == b.labels


class TestConstruction:
    def test_requires_decomposed_metric(self, population):
        areas, _ = population

        def flat_metric(a, b):
            return 0.0

        with pytest.raises(ValueError, match="decomposed"):
            BlockSparseDistanceMatrix.compute(areas, flat_metric)

    def test_cutoff_beyond_bound_rejected(self, population, sparse):
        areas, metric = population
        with pytest.raises(ValueError, match="exactness bound"):
            BlockSparseDistanceMatrix.compute(
                areas, metric, cutoff=sparse.exactness_bound)

    def test_exactness_bound_matches_population(self, population,
                                                sparse):
        areas, _ = population
        expected = partition_exactness_bound(
            a.table_set for a in areas)
        assert sparse.exactness_bound == pytest.approx(expected)

    def test_single_partition_bound_is_inf(self, population):
        areas, metric = population
        key = next(iter({a.table_set for a in areas}))
        same = [a for a in areas if a.table_set == key]
        matrix = BlockSparseDistanceMatrix.compute(same, metric)
        assert matrix.exactness_bound == math.inf
        assert matrix.n_partitions == 1


class TestStats:
    def test_block_accounting(self, population, sparse):
        areas, _ = population
        stats = sparse.stats
        partition_sizes = {}
        for area in areas:
            partition_sizes[area.table_set] = \
                partition_sizes.get(area.table_set, 0) + 1
        expected_pairs = sum(m * (m - 1) // 2
                             for m in partition_sizes.values())
        p = len(partition_sizes)
        assert stats.n_blocks == p
        assert stats.largest_block == max(partition_sizes.values())
        assert stats.pairs_computed == expected_pairs
        assert stats.pairs_skipped == stats.pairs_total - expected_pairs
        assert stats.stored_floats == expected_pairs + p * p
        assert stats.stored_floats < stats.pairs_total
        assert 0.0 < stats.storage_fraction < 1.0

    def test_summary_mentions_blocks(self, sparse):
        text = sparse.stats.summary()
        assert "blocks" in text
        assert "floats stored" in text

    def test_metrics_recorded(self, population):
        from repro.obs.metrics import MetricsRegistry
        areas, metric = population
        registry = MetricsRegistry()
        BlockSparseDistanceMatrix.compute(areas, metric,
                                          registry=registry)
        snapshot = registry.snapshot()
        counters = {c["name"] for c in snapshot["counters"]}
        gauges = {g["name"] for g in snapshot["gauges"]}
        assert "repro_distance_blocks_total" in counters
        assert "repro_distance_stored_floats" in gauges
        assert "repro_distance_storage_fraction" in gauges


class TestComputeMatrixFactory:
    def test_mode_validated(self, population):
        areas, metric = population
        with pytest.raises(ValueError, match="mode"):
            compute_matrix(areas, metric, mode="blocky")

    def test_explicit_modes(self, population):
        areas, metric = population
        assert isinstance(compute_matrix(areas, metric, mode="dense"),
                          DistanceMatrix)
        assert isinstance(compute_matrix(areas, metric, mode="kernel",
                                         eps=EPS),
                          BlockSparseDistanceMatrix)

    def test_auto_picks_sparse_below_bound(self, population):
        areas, metric = population
        matrix = compute_matrix(areas, metric, mode="auto", eps=EPS)
        assert isinstance(matrix, BlockSparseDistanceMatrix)

    def test_auto_picks_dense_at_bound(self, population, sparse):
        areas, metric = population
        matrix = compute_matrix(areas, metric, mode="auto",
                                eps=sparse.exactness_bound)
        assert isinstance(matrix, DistanceMatrix)

    def test_auto_without_eps_is_dense(self, population):
        areas, metric = population
        assert isinstance(compute_matrix(areas, metric, mode="auto"),
                          DistanceMatrix)

    def test_auto_with_flat_metric_is_dense(self, population):
        areas, _ = population
        matrix = compute_matrix(areas, lambda a, b: 0.5, mode="auto",
                                eps=EPS)
        assert isinstance(matrix, DistanceMatrix)


class TestInsertRow:
    """Incremental growth parity: a matrix grown row by row must be
    indistinguishable — bitwise — from one computed from scratch."""

    def test_grown_matrix_matches_recompute(self, population):
        areas, metric = population
        prefix, suffix = areas[:40], areas[40:60]
        grown = BlockSparseDistanceMatrix.compute(prefix, metric)
        for area in suffix:
            grown.insert_row(area, metric)
        ref = BlockSparseDistanceMatrix.compute(prefix + suffix, metric)
        assert grown.n == ref.n
        assert grown.exactness_bound == ref.exactness_bound
        assert np.array_equal(grown.to_square(), ref.to_square())
        for i in range(0, ref.n, 7):
            assert grown.neighbors(i, EPS) == ref.neighbors(i, EPS)
        # Both sides come from the kernel, so pin every intra-partition
        # entry against the per-pair metric as well.
        population = prefix + suffix
        for _, members in grown.partitions():
            for a, i in enumerate(members):
                for j in members[a + 1:]:
                    assert grown.value(i, j) == metric(population[i],
                                                       population[j])

    def test_bootstrap_from_empty(self, population):
        areas, metric = population
        grown = BlockSparseDistanceMatrix.compute([], metric)
        for area in areas[:30]:
            grown.insert_row(area, metric)
        ref = BlockSparseDistanceMatrix.compute(areas[:30], metric)
        assert np.array_equal(grown.to_square(), ref.to_square())

    def test_kernel_unsupported_insert_falls_back_per_pair(self, stats):
        # The kernel refuses a bool constant (its ``True == 1`` identity
        # makes even the oracle's memo order-dependent): the partition
        # retires its pack and every later insert goes per pair.  LE so
        # the bool collapses into no existing ``T.a <= hi`` predicate.
        metric = QueryDistance(stats)
        ref = ColumnRef("T", "a")

        def area(*bounds):
            return AccessArea(("T",), CNF.of([
                Clause.of([ColumnConstantPredicate(ref, op, value)])
                for op, value in bounds]))

        population = [area((Op.GE, lo), (Op.LE, lo + 2.5))
                      for lo in (0.0, 0.5, 1.0, 1.5)]
        grown = BlockSparseDistanceMatrix.compute(population, metric)
        population += [area((Op.LE, True)),
                       area((Op.GE, 0.25), (Op.LE, 2.75))]
        for item in population[4:]:
            grown.insert_row(item, metric)
        assert grown._packs == {0: None}
        for i in range(len(population)):
            for j in range(i + 1, len(population)):
                assert grown.value(i, j) == metric(population[i],
                                                   population[j])

    def test_stats_pair_accounting(self, population):
        areas, metric = population
        grown = BlockSparseDistanceMatrix.compute(areas[:40], metric)
        for area in areas[40:60]:
            grown.insert_row(area, metric)
        want = sum(len(m) * (len(m) - 1) // 2
                   for _, m in grown.partitions())
        assert grown.stats.pairs_computed == want
        assert grown.stats.pairs_total == grown.n * (grown.n - 1) // 2
        assert grown.stats.n_items == grown.n

    def test_max_radius_refuses_before_mutation(self, population):
        areas, metric = population
        grown = BlockSparseDistanceMatrix.compute(areas[:20], metric)
        covered = {frozenset(x.table_set) for x in areas[:20]}
        unseen = next((a for a in areas[20:]
                       if frozenset(a.table_set) not in covered), None)
        if unseen is None:
            pytest.skip("workload prefix already covers every table set")
        before = grown.to_square().copy()
        n_before = grown.n
        with pytest.raises(ValueError, match="bound"):
            grown.insert_row(unseen, metric, max_radius=1.0)
        assert grown.n == n_before
        assert np.array_equal(grown.to_square(), before)
        # Without the reservation the same insert succeeds.
        grown.insert_row(unseen, metric)
        assert grown.n == n_before + 1

    def test_requires_compute_built_matrix(self, population):
        areas, metric = population
        ref = BlockSparseDistanceMatrix.compute(areas[:5], metric)
        clone = BlockSparseDistanceMatrix(
            ref.n, list(ref._keys), [m.copy() for m in ref._members],
            [b.condensed for b in ref._blocks], ref._bounds.copy(),
            ref.stats)
        with pytest.raises(ValueError, match="compute"):
            clone.insert_row(areas[5], metric)
