"""Differential conformance battery: vectorized kernel vs oracle.

The kernel's contract is *bitwise* agreement with the pure-Python
:class:`PredicateDistance`/:class:`QueryDistance` oracle, not just
closeness: hypothesis generates predicate populations across every
supported kind — numeric intervals and rays (GE/GT/LE/LT), equality and
inequality points, categorical EQ/NE and ordered LT–GE footprints,
column-column joins, multi-predicate and empty (FALSE) clauses, TRUE
(empty-CNF) areas, duplicate spelling variants (``x = 5`` vs
``x = 5.0``) — and every condensed block entry must equal the oracle's
per-pair evaluation exactly (the issue's 1e-12 budget is therefore met
with zero slack).

Edge cases the kernel must *refuse* rather than approximate — NaN/inf
constants, bool constants whose ``True == 1`` identity makes even the
oracle order-dependent, > 2^53 integers at resolution 0, footprint
widths that overflow float64 — are pinned separately: the partition
falls back to the oracle path and the produced block still matches by
construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.core.area import AccessArea
from repro.distance import DistanceMatrix, QueryDistance, condensed_index
from repro.distance.kernel import (KernelUnsupported, PackedPartition,
                                   compute_kernel_blocks)
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

def _dist_stats():
    """The conftest ``stats`` catalog, rebuilt per hypothesis example
    (function-scoped fixtures are off-limits under ``@given``)."""
    schema = Schema("dist")
    schema.add(Relation("T", (
        Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a1", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a2", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("s", ColumnType.VARCHAR, categories=("x", "y", "z")),
    )))
    schema.add(Relation("S", (
        Column("b", ColumnType.FLOAT, Interval(0.0, 10.0)),
        Column("u", ColumnType.FLOAT, Interval(0.0, 10.0)),
    )))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "a"): Interval(0.0, 5.0),
        ("T", "a1"): Interval(0.0, 5.0),
        ("T", "a2"): Interval(0.0, 5.0),
        ("S", "b"): Interval(0.0, 10.0),
        ("S", "u"): Interval(0.0, 10.0),
    })


T_A = ColumnRef("T", "a")
T_A1 = ColumnRef("T", "a1")
T_A2 = ColumnRef("T", "a2")
T_S = ColumnRef("T", "s")

OPS = list(Op)


def _oracle_block(stats, areas, resolution):
    """Per-pair pure-Python condensed block with a fresh metric (no
    cache cross-talk with the kernel's pack-time oracle calls)."""
    metric = QueryDistance(stats, resolution=resolution)
    m = len(areas)
    return [metric(areas[a], areas[b])
            for a in range(m) for b in range(a + 1, m)]


def _assert_block_matches(stats, areas, resolution, *,
                          expect_packed=None):
    metric = QueryDistance(stats, resolution=resolution)
    blocks, kstats = compute_kernel_blocks(
        areas, metric, [list(range(len(areas)))])
    if expect_packed is True:
        assert kstats.partitions_packed == 1, kstats.summary()
    if expect_packed is False:
        assert kstats.partitions_fallback == 1, kstats.summary()
    want = _oracle_block(stats, areas, resolution)
    got = list(blocks[0])
    assert len(got) == len(want)
    for pair, (value, reference) in enumerate(zip(got, want)):
        assert value == reference, (
            f"pair {pair}: kernel {value!r} != oracle {reference!r}")
    return kstats


# -- strategies --------------------------------------------------------------

numeric_values = st.one_of(
    st.floats(min_value=-10.0, max_value=15.0, allow_nan=False),
    st.integers(min_value=-5, max_value=10),
    st.sampled_from([5, 5.0, 2.5, 0.0, -0.0]))

numeric_predicates = st.builds(
    ColumnConstantPredicate,
    st.sampled_from([T_A, T_A1, T_A2]),
    st.sampled_from(OPS),
    numeric_values)

categorical_predicates = st.builds(
    ColumnConstantPredicate,
    st.just(T_S),
    st.sampled_from(OPS),
    st.sampled_from(["x", "y", "z", "w", ""]))

# Strings on a numeric column: the oracle's mixed-type and empty-
# vocabulary branches.
mixed_type_predicates = st.builds(
    ColumnConstantPredicate,
    st.just(T_A),
    st.sampled_from([Op.EQ, Op.NE, Op.LT]),
    st.sampled_from(["x", "q"]))

join_predicates = st.builds(
    lambda pair, op: ColumnColumnPredicate(pair[0], op, pair[1]),
    st.sampled_from([(T_A, T_A1), (T_A, T_A2), (T_A1, T_A2)]),
    st.sampled_from([Op.EQ, Op.LT, Op.GE]))

predicates = st.one_of(
    numeric_predicates, numeric_predicates, numeric_predicates,
    categorical_predicates, join_predicates, mixed_type_predicates)

clauses = st.lists(predicates, min_size=0, max_size=3).map(Clause.of)

areas = st.lists(clauses, min_size=0, max_size=4).map(
    lambda cl: AccessArea(("T",), CNF.of(cl)))

populations = st.lists(areas, min_size=1, max_size=10)

resolutions = st.sampled_from([0.0, 0.01, 0.05])


class TestHypothesisConformance:
    @settings(max_examples=60, deadline=None)
    @given(population=populations, resolution=resolutions)
    def test_block_values_match_oracle_bitwise(self, population,
                                               resolution):
        _assert_block_matches(_dist_stats(), population, resolution,
                              expect_packed=True)

    @settings(max_examples=30, deadline=None)
    @given(population=st.lists(areas, min_size=2, max_size=8),
           resolution=resolutions)
    def test_pair_rows_match_condensed_block(self, population,
                                             resolution):
        metric = QueryDistance(_dist_stats(), resolution=resolution)
        pack = PackedPartition(population, metric)
        block = pack.condensed_block()
        m = len(population)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            row = pack.pair_rows(i, others)
            for j, value in zip(others, row):
                assert value == block[condensed_index(i, j, m)]
            assert pack.pair_rows(i, [i])[0] == 0.0


def _area(*clause_preds):
    return AccessArea(("T",), CNF.of(
        [Clause.of(list(preds)) for preds in clause_preds]))


class TestSpellingVariants:
    """Value-equal predicate spellings must share one packed row the
    way they share one oracle memo entry."""

    def test_int_float_duplicates_in_one_cnf(self, stats):
        # CNF.of dedupes clauses by *string*, so ``a = 5`` and
        # ``a = 5.0`` survive as distinct clauses that are value-equal:
        # the pack must keep both positions.
        a1 = _area([ColumnConstantPredicate(T_A, Op.EQ, 5)],
                   [ColumnConstantPredicate(T_A, Op.EQ, 5.0)])
        a2 = _area([ColumnConstantPredicate(T_A, Op.GE, 2.0)])
        _assert_block_matches(stats, [a1, a2, a1], 0.01,
                              expect_packed=True)


class TestUnsupportedFallsBackExactly:
    """Kinds the kernel refuses: the partition falls back to the
    per-pair oracle and still matches it (trivially, but the plumbing —
    stats, block shapes, mixed populations — is what's under test)."""

    def test_nan_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.EQ, math.nan)])
        good = _area([ColumnConstantPredicate(T_A, Op.LE, 3.0)])
        kstats = _assert_block_matches(stats, [bad, good], 0.01,
                                       expect_packed=False)
        assert kstats.pairs_fallback == 1

    def test_inf_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.LT, math.inf)])
        good = _area([ColumnConstantPredicate(T_A, Op.GT, 1.0)])
        _assert_block_matches(stats, [bad, good], 0.01,
                              expect_packed=False)

    def test_bool_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.EQ, True)])
        good = _area([ColumnConstantPredicate(T_A, Op.EQ, 1)])
        _assert_block_matches(stats, [bad, good], 0.01,
                              expect_packed=False)

    def test_huge_int_at_resolution_zero(self, stats):
        # > 2^53: not exactly representable in float64, so the width
        # arithmetic the oracle does in exact int space cannot be
        # replayed; at resolution 0 the pack must refuse.
        huge = 2 ** 60 + 1
        a1 = _area([ColumnConstantPredicate(T_A, Op.EQ, huge)])
        a2 = _area([ColumnConstantPredicate(T_A, Op.EQ, huge + 2)])
        _assert_block_matches(stats, [a1, a2], 0.0)

    def test_unsupported_reported_not_raised(self, stats):
        metric = QueryDistance(stats)
        with pytest.raises(KernelUnsupported):
            PackedPartition(
                [_area([ColumnConstantPredicate(T_A, Op.EQ, math.nan)])],
                metric)

    def test_subclassed_metric_refused(self, stats):
        class Tweaked(QueryDistance):
            def d_conj(self, cnf1, cnf2):  # pragma: no cover
                return 0.0

        with pytest.raises(KernelUnsupported):
            PackedPartition(
                [_area([ColumnConstantPredicate(T_A, Op.EQ, 1.0)])],
                Tweaked(stats))


class TestDegenerateAccessWidths:
    """The ``_same_column_numeric`` guard ladder: infinite access width
    → structural (op, value) equality; zero width → value equality."""

    @staticmethod
    def _catalog(interval):
        schema = Schema("edge")
        schema.add(Relation("T", (
            Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),)))
        content = {} if interval is None else {("T", "a"): interval}
        return StatisticsCatalog.from_exact_content(schema, content)

    def test_zero_width_access(self):
        stats = self._catalog(Interval(2.0, 2.0))
        areas_ = [
            _area([ColumnConstantPredicate(T_A, Op.LT, 3.0)]),
            _area([ColumnConstantPredicate(T_A, Op.GT, 3)]),
            _area([ColumnConstantPredicate(T_A, Op.GE, 3.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01, expect_packed=True)

    def test_unknown_column_infinite_width(self):
        schema = Schema("edge")
        schema.add(Relation("T", (
            Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),)))
        stats = StatisticsCatalog.from_exact_content(schema, {})
        ghost = ColumnRef("T", "ghost")
        areas_ = [
            _area([ColumnConstantPredicate(ghost, Op.LT, 3.0)]),
            _area([ColumnConstantPredicate(ghost, Op.LT, 3)]),
            _area([ColumnConstantPredicate(ghost, Op.GE, 3.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01, expect_packed=True)

    def test_overflowing_footprint_widths_fall_back(self):
        # Near-max access width: widened footprint widths add past
        # float64, where numpy and Python disagree on NaN propagation —
        # the pack must refuse rather than approximate.
        stats = self._catalog(Interval(-8.0e307, 8.0e307))
        areas_ = [
            _area([ColumnConstantPredicate(T_A, Op.NE, 0.0)]),
            _area([ColumnConstantPredicate(T_A, Op.LE, 1.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01)


class TestKernelMatrixMode:
    def test_kernel_mode_equals_dense_matrix(self, stats):
        from repro.distance.block_sparse import compute_matrix
        population = [
            _area([ColumnConstantPredicate(T_A, Op.LE, float(i))])
            for i in range(5)
        ] + [
            AccessArea(("S",), CNF.of([Clause.of(
                [ColumnConstantPredicate(ColumnRef("S", "b"), Op.GE,
                                         float(i))])]))
            for i in range(4)
        ]
        dense = DistanceMatrix.compute(population, QueryDistance(stats))
        kernel = compute_matrix(population, QueryDistance(stats),
                                mode="kernel", eps=0.12)
        for i in range(len(population)):
            kernel_row = kernel.row(i)
            dense_row = dense.row(i)
            for j in range(len(population)):
                if population[i].table_set == population[j].table_set:
                    assert kernel_row[j] == dense_row[j]
            assert kernel.neighbors(i, 0.12) == dense.neighbors(i, 0.12)
