"""BlockSparseDistanceMatrix: per-pair oracle parity, bound semantics,
stats."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.algebra.cnf import CNF, Clause
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import (DBSCAN, OPTICS, SingleLinkage,
                              pairwise_matrix, partitioned_dbscan)
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


@pytest.fixture(scope="module")
def dense(population):
    """The per-pair oracle, in the dense matrix's container."""
    areas, metric = population
    return DistanceMatrix.from_square(pairwise_matrix(areas, metric))


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

    def test_neighbors_at_and_above_bound_match_dense(self, population):
        """At and above the exactness bound a neighbourhood reaches the
        partitions within the radius, for every item and resolution.
        In a matrix built at once, the members of another partition
        newer than the item take the per-pair branch."""
        areas, metric = population
        for resolution in (0.05, 0.0):
            metric = QueryDistance(metric.stats, resolution=resolution)
            dense = DistanceMatrix.compute(areas, metric)
            sparse = BlockSparseDistanceMatrix.compute(areas, metric)
            for eps in (sparse.exactness_bound, 0.6, 1.0, 1.2):
                for i in range(len(areas)):
                    assert sparse.neighbors(i, eps) \
                        == dense.neighbors(i, eps)

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

    def test_submatrix_gather_equals_pair_loop(self, population, sparse):
        """Mixed and single-partition index lists, shuffled, over
        condensed blocks and over blocks grown by ``insert_row``: the
        gather equals the pair-by-pair copy it replaced."""
        areas, metric = population
        grown = BlockSparseDistanceMatrix.compute(areas[:100], metric,
                                                  cutoff=EPS)
        for area in areas[100:]:
            grown.insert_row(area)
        rng = random.Random(11)
        for matrix in (sparse, grown):
            n = len(matrix)
            biggest = max((members for _, members in matrix.partitions()),
                          key=len).tolist()
            for indices in (rng.sample(range(n), 40), rng.sample(range(n), n),
                            rng.sample(biggest, len(biggest)),
                            [biggest[0]] + rng.sample(range(n), 12)
                            + [biggest[0]]):
                want = _submatrix_by_pairs(matrix, indices)
                got = matrix.submatrix(indices)
                assert len(got) == len(indices)
                assert got.condensed.view(np.int64).tolist() \
                    == want.view(np.int64).tolist()

    def test_to_square_symmetric(self, sparse):
        square = sparse.to_square()
        assert square.shape == (len(sparse), len(sparse))
        assert np.allclose(square, square.T)
        assert np.all(np.diag(square) == 0.0)


class TestClusteringParity:
    """The per-pair oracle and the sparse matrix must give identical
    labels below the bound."""

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
            grown.insert_row(area)
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
            grown.insert_row(area)
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
            grown.insert_row(item)
        assert grown._packs == {0: None}
        for i in range(len(population)):
            for j in range(i + 1, len(population)):
                assert grown.value(i, j) == metric(population[i],
                                                   population[j])

    def test_stats_pair_accounting(self, population):
        """An insert computes no pair: ``pairs_computed`` keeps what
        :meth:`compute` filled, and ``stored_floats`` drops the block of
        every partition an insert reached."""
        areas, metric = population
        grown = BlockSparseDistanceMatrix.compute(areas[:40], metric)
        computed = grown.stats.pairs_computed
        for area in areas[40:60]:
            grown.insert_row(area)
        stats = grown.stats
        assert stats.pairs_computed == computed
        assert stats.pairs_total == grown.n * (grown.n - 1) // 2
        assert stats.pairs_skipped == stats.pairs_total - computed
        assert stats.n_items == grown.n
        kept = sum(len(block.condensed) for block in grown._blocks
                   if block is not None)
        assert kept < computed
        assert stats.stored_floats == kept + grown.n_partitions ** 2
        assert stats.largest_block == max(
            len(m) for _, m in grown.partitions())

    def test_grown_neighbors_at_and_above_bound_match_dense(
            self, population):
        """A matrix grown by :meth:`insert_row` answers every item's
        neighbourhood at and above the exactness bound as the dense
        matrix does, at every resolution: after each insert, as a
        clusterer asks for its newest arrival's, and once grown."""
        areas, metric = population
        for resolution in (0.05, 0.0):
            metric = QueryDistance(metric.stats, resolution=resolution)
            dense = DistanceMatrix.compute(areas, metric)
            grown = BlockSparseDistanceMatrix.compute([], metric)
            for i, area in enumerate(areas):
                grown.insert_row(area)
                for eps in (0.5, 1.2):
                    assert grown.neighbors(i, eps) == [
                        j for j in dense.neighbors(i, eps) if j <= i]
            for eps in (grown.exactness_bound, 0.6, 1.0):
                for i in range(len(areas)):
                    assert grown.neighbors(i, eps) \
                        == dense.neighbors(i, eps)

    def test_kernel_refused_cross_rows_go_per_pair(self, stats):
        # The kernel refuses a bool constant: the {T} partition retires
        # its pack, and probing the bool area into the {T,S} partition's
        # pack raises, so those cross rows take the metric per pair.
        metric = QueryDistance(stats)

        def area(tables, *bounds):
            return AccessArea(tables, CNF.of([
                Clause.of([ColumnConstantPredicate(ColumnRef("T", "a"),
                                                   op, value)])
                for op, value in bounds]))

        population = [
            area(("T",), (Op.GE, 0.5), (Op.LE, 3.0)),
            area(("T", "S"), (Op.GE, 1.0), (Op.LE, 3.5)),
            area(("T",), (Op.LE, True)),
            area(("T", "S"), (Op.GE, 0.0), (Op.LE, 2.5)),
            area(("T",), (Op.GE, 1.5), (Op.LE, 4.0))]
        grown = BlockSparseDistanceMatrix.compute([], metric)
        for item in population:
            grown.insert_row(item)
        assert grown._packs[0] is None and grown._packs[1] is not None
        dense = DistanceMatrix.from_square(pairwise_matrix(population,
                                                           metric))
        for eps in (0.5, 0.8, 1.2):
            for i in range(len(population)):
                assert grown.neighbors(i, eps) == dense.neighbors(i, eps)


class TestLiveMemory:
    """A grown matrix holds its partitions' packs and the bound table,
    and no square per partition: the bytes it holds per inserted area
    stay flat as the population doubles."""

    #: bytes held per inserted area, metric caches included; a grown
    #: matrix over the generator's distinct areas holds about 1.3 KiB.
    PER_AREA = 2048

    def test_bytes_per_area_stay_flat(self):
        schema = skyserver_schema()
        extractor = AccessAreaExtractor(schema)
        workload = generate_workload(WorkloadConfig(n_queries=1000, seed=1))
        seen, areas = set(), []
        for sql in workload.log.statements():
            try:
                area = extractor.extract(sql).area
            except Exception:
                continue
            if area is not None and area not in seen:
                seen.add(area)
                areas.append(area)
        stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
        for area in areas:
            stats.observe_cnf(area.cnf)
        metric = QueryDistance(stats)
        assert len(areas) > 900
        checkpoints = (len(areas) // 2, len(areas))

        held = {}
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grown = BlockSparseDistanceMatrix.compute([], metric)
            for count, area in enumerate(areas, 1):
                # As the clusterer does: insert, then ask the arrival's
                # neighbourhood.
                grown.neighbors(grown.insert_row(area), EPS)
                if count in checkpoints:
                    gc.collect()
                    held[count] = \
                        (tracemalloc.get_traced_memory()[0] - base) / count
        finally:
            tracemalloc.stop()
        half, full = checkpoints
        assert held[half] < self.PER_AREA, held
        assert held[full] < self.PER_AREA, held
        assert held[full] < 1.1 * held[half], held
