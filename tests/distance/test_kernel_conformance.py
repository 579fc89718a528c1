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

A pack grown area by area (or chunk by chunk) must hold the same tables
as one packed from scratch, refuse before changing anything, and call
the oracle's per-predicate helpers only for predicates it has not
packed yet.

A pack reads no table sets: over areas of several table sets, the
Jaccard ``d_tables`` plus the pack's ``d_conj`` is the full metric.  A
probe of a shared pack scores the query as a pack holding it would and
leaves the shared pack bitwise unchanged.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import pairwise_matrix
from repro.core.area import AccessArea
import repro.distance.kernel as kernel_module
from repro.distance import QueryDistance, condensed_index
from repro.distance.kernel import (KernelUnsupported, PackedPartition,
                                   compute_kernel_blocks)
from repro.distance.predicate_distance import PredicateDistance
from repro.distance.query_distance import jaccard_distance
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
        oracle = pairwise_matrix(population, QueryDistance(stats))
        kernel = compute_matrix(population, QueryDistance(stats),
                                mode="kernel", eps=0.12)
        for i in range(len(population)):
            kernel_row = kernel.row(i)
            for j in range(len(population)):
                if population[i].table_set == population[j].table_set:
                    assert kernel_row[j] == oracle[i, j]
            assert kernel.neighbors(i, 0.12) \
                == list(np.flatnonzero(oracle[i] <= 0.12))


# -- growing a pack ----------------------------------------------------------


def _tables(pack):
    return {name: getattr(pack, name).copy()
            for name in ("_dp", "_dc", "_best")}


def _assert_same_tables(grown, scratch):
    for name in ("n_predicates", "n_clauses", "n_areas"):
        assert getattr(grown, name) == getattr(scratch, name), name
    for name, table in _tables(scratch).items():
        other = getattr(grown, name)
        assert other.shape == table.shape, name
        assert (other == table).all(), name


def _assert_rows_match(pack, scratch, want):
    """Every ``pair_rows`` of ``pack`` equals ``scratch``'s and the
    oracle's condensed ``want`` — against all other areas at once and
    against each one alone."""
    m = pack.n_areas
    for i in range(m):
        others = [j for j in range(m) if j != i]
        row = pack.pair_rows(i, others)
        assert (row == scratch.pair_rows(i, others)).all()
        for j, value in zip(others, row):
            assert value == want[condensed_index(i, j, m)]
            assert pack.pair_rows(i, [j])[0] == value


def _grow(population, metric, chunks):
    """A pack extended chunk by chunk, sizes cycling through ``chunks``."""
    pack = PackedPartition([], metric)
    start = step = 0
    while start < len(population):
        size = chunks[step % len(chunks)]
        pack.extend(population[start:start + size])
        start += size
        step += 1
    return pack


class TestGrownPackMatchesScratch:
    """Growing appends rows and columns; the tables must come out
    exactly as a from-scratch pack (and the oracle) has them."""

    @settings(max_examples=60, deadline=None)
    @given(population=populations, resolution=resolutions,
           chunks=st.lists(st.integers(min_value=1, max_value=4),
                           min_size=1, max_size=6))
    def test_grown_equals_scratch_and_oracle(self, population, resolution,
                                             chunks):
        stats = _dist_stats()
        metric = QueryDistance(stats, resolution=resolution)
        scratch = PackedPartition(population, metric)
        want = _oracle_block(stats, population, resolution)
        block = list(scratch.condensed_block())
        assert block == want
        for grown in (_grow(population, metric, [1]),
                      _grow(population, metric, chunks)):
            _assert_same_tables(grown, scratch)
            assert list(grown.condensed_block()) == block
            _assert_rows_match(grown, scratch, want)


class TestPairRowsSummationOrder:
    def test_single_target_with_many_clauses(self):
        # One target makes the gathered sums a single column, which
        # numpy would add pairwise past eight terms; the oracle adds in
        # order.  Twelve unit clauses per area.
        names = [f"c{k}" for k in range(12)]
        schema = Schema("wide")
        schema.add(Relation("T", tuple(
            Column(name, ColumnType.FLOAT, Interval(0.0, 7.0))
            for name in names)))
        stats = StatisticsCatalog.from_exact_content(
            schema, {("T", name): Interval(0.0, 7.0) for name in names})
        rng = random.Random(3)

        def wide_area():
            return AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(
                    ColumnRef("T", name), rng.choice([Op.LE, Op.GE]),
                    round(rng.uniform(0.0, 7.0), 3))]) for name in names]))

        for _ in range(40):
            pair = [wide_area(), wide_area()]
            pack = PackedPartition(pair, QueryDistance(stats))
            oracle = QueryDistance(stats)
            assert pack.pair_rows(1, [0])[0] == oracle(pair[1], pair[0])
            assert pack.pair_rows(0, [1])[0] == oracle(pair[0], pair[1])


def _overflow_stats():
    schema = Schema("edge")
    schema.add(Relation("T", (
        Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),)))
    return StatisticsCatalog.from_exact_content(
        schema, {("T", "a"): Interval(-8.0e307, 8.0e307)})


class TestRefusedExtendLeavesPackUnchanged:
    """A refused extend writes nothing: the pack keeps its tables and
    grows correctly afterwards."""

    @pytest.mark.parametrize("catalog, bad", [
        # GT: no packed ``T.a > 1`` that ``True == 1`` would collapse into.
        (_dist_stats, ColumnConstantPredicate(T_A, Op.GT, True)),
        (_dist_stats, ColumnConstantPredicate(T_A, Op.EQ, math.nan)),
        (_dist_stats, ColumnConstantPredicate(T_A, Op.LT, math.inf)),
        (_overflow_stats, ColumnConstantPredicate(T_A, Op.NE, 0.0)),
    ], ids=["bool", "nan", "inf", "overflowing-width"])
    def test_refusal(self, catalog, bad):
        stats = catalog()
        metric = QueryDistance(stats, resolution=0.01)
        population = [
            _area([ColumnConstantPredicate(T_A, Op.LE, 1.0 + k)],
                  [ColumnConstantPredicate(T_A, Op.GE, 0.5 * k),
                   ColumnConstantPredicate(T_A, Op.EQ, 4.0)])
            for k in range(3)]
        pack = _grow(population, metric, [1])
        before = _tables(pack)
        counts = (pack.n_predicates, pack.n_clauses, pack.n_areas)
        # New good predicates and clauses ride along with the bad one,
        # so a partial commit would show.
        hostile = _area([ColumnConstantPredicate(T_A, Op.GE, 2.25)],
                        [ColumnConstantPredicate(T_A, Op.LE, 3.75), bad])
        with pytest.raises(KernelUnsupported):
            pack.extend([population[0], hostile])
        assert (pack.n_predicates, pack.n_clauses, pack.n_areas) == counts
        for name, table in before.items():
            after = getattr(pack, name)
            assert after.shape == table.shape
            assert after.tobytes() == table.tobytes(), name

        good = _area([ColumnConstantPredicate(T_A, Op.GE, 2.25)],
                     [ColumnConstantPredicate(T_A, Op.LE, 3.75),
                      ColumnConstantPredicate(T_A, Op.EQ, 0.5)])
        pack.extend([good])
        grown = population + [good]
        scratch = PackedPartition(grown, metric)
        _assert_same_tables(pack, scratch)
        want = _oracle_block(stats, grown, 0.01)
        assert list(pack.condensed_block()) == want
        _assert_rows_match(pack, scratch, want)


class TestInsertIsIncremental:
    """An extend runs the oracle's per-predicate helpers for new
    predicates only — counted, not timed."""

    HELPERS = ("_coverage_fraction", "_widened", "_categorical_footprint")

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = {name: [] for name in self.HELPERS}

        def counting(name, helper, position):
            def wrapper(*args):
                seen[name].append(args[position])
                return helper(*args)
            return wrapper

        for name in ("_coverage_fraction", "_widened"):
            monkeypatch.setattr(PredicateDistance, name, counting(
                name, getattr(PredicateDistance, name), 1))
        monkeypatch.setattr(kernel_module, "_categorical_footprint",
                            counting("_categorical_footprint",
                                     kernel_module._categorical_footprint,
                                     0))
        return seen

    @staticmethod
    def _base(size):
        refs = (T_A, T_A1, T_A2)
        areas_ = []
        for k in range(size):
            ref = refs[k % 3]
            areas_.append(_area(
                [ColumnConstantPredicate(ref, Op.GE, 0.125 * k)],
                [ColumnConstantPredicate(ref, Op.LE, 0.125 * k + 1.0),
                 ColumnConstantPredicate(T_S, Op.NE, "xyz"[k % 3])],
                [ColumnColumnPredicate(T_A, (Op.EQ, Op.LT)[k % 2],
                                       T_A1)]))
        return areas_

    @pytest.mark.parametrize("size", [4, 40])
    def test_helpers_run_once_per_new_predicate(self, calls, size):
        metric = QueryDistance(_dist_stats(), resolution=0.01)
        pack = PackedPartition(self._base(size), metric)
        packed = set(pack._pred_ids)
        for seen in calls.values():
            seen.clear()
        fresh = [ColumnConstantPredicate(T_A, Op.LE, 4.8125),
                 ColumnConstantPredicate(T_A2, Op.GT, 0.0625),
                 ColumnConstantPredicate(T_S, Op.LT, "y"),
                 ColumnColumnPredicate(T_A1, Op.GE, T_A2)]
        assert not packed.intersection(fresh)
        pack.extend([_area([fresh[0], fresh[2]], [fresh[1]], [fresh[3]],
                           [ColumnConstantPredicate(T_A, Op.GE, 0.0)])])
        assert pack.n_predicates == len(packed) + len(fresh)
        assert sorted(map(str, calls["_coverage_fraction"])) \
            == sorted(map(str, fresh[:2]))
        assert sorted(map(str, calls["_widened"])) \
            == sorted(map(str, fresh[:2]))
        assert calls["_categorical_footprint"] == [fresh[2]]

        # Areas built only from packed predicates call no helper.
        for seen in calls.values():
            seen.clear()
        pack.extend(self._base(size)[::-1]
                    + [_area([fresh[3]], [fresh[0], fresh[1]])])
        assert all(not seen for seen in calls.values())


# -- table sets and probes ---------------------------------------------------

mixed_areas = st.builds(
    lambda tables, clauses_: AccessArea(tables, CNF.of(clauses_)),
    st.sampled_from([("T",), ("S",), ("S", "T")]),
    st.lists(clauses, min_size=0, max_size=4))


class TestMixedTableSets:
    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(mixed_areas, min_size=2, max_size=8),
           resolution=resolutions)
    def test_jaccard_plus_pack_equals_metric(self, population,
                                             resolution):
        stats = _dist_stats()
        pack = PackedPartition(population,
                               QueryDistance(stats, resolution=resolution))
        block = pack.condensed_block()
        oracle = QueryDistance(stats, resolution=resolution)
        m = len(population)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                value = jaccard_distance(population[i].table_set,
                                         population[j].table_set) \
                    + block[condensed_index(i, j, m)]
                assert value == oracle(population[i], population[j])


_PROBED = ("_counts", "_dp", "_dc", "_best", "_table", "_bits",
           "_dp_buf", "_dc_buf", "_best_buf", "_counts_buf", "_id_pad_buf")


class TestProbe:
    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(mixed_areas, min_size=1, max_size=8),
           query=mixed_areas, resolution=resolutions, grown=st.booleans())
    def test_probe_scores_query_and_leaves_pack_unchanged(
            self, population, query, resolution, grown):
        metric = QueryDistance(_dist_stats(), resolution=resolution)
        # A pack grown area by area keeps spare capacity, which a probe
        # must not write either; one packed at once has none.
        pack = PackedPartition(population[:1] if grown else population,
                               metric)
        for area in population[1:] if grown else ():
            pack.extend([area])
        before = {name: getattr(pack, name).copy() for name in _PROBED}
        counts = (pack.n_predicates, pack.n_clauses, pack.n_areas)
        m = len(population)

        row = pack.probe(query)

        held = PackedPartition(population + [query], metric)
        assert row.tobytes() == held.pair_rows(m, range(m)).tobytes()
        oracle = QueryDistance(_dist_stats(), resolution=resolution)
        assert list(row) == [oracle.d_conj(query.cnf, area.cnf)
                             for area in population]
        assert (pack.n_predicates, pack.n_clauses, pack.n_areas) == counts
        for name, table in before.items():
            after = getattr(pack, name)
            assert after.shape == table.shape, name
            assert after.tobytes() == table.tobytes(), name
        # The probed pack still grows exactly as an unprobed one.
        pack.extend([query])
        _assert_same_tables(pack, held)

    def test_probe_wider_than_spare_capacity(self, monkeypatch):
        """A query bringing more new predicates and clauses than the
        shared pack has spare room for leaves the pack's buffers as they
        were; the probe's copy is sized to the query, not doubled."""
        metric = QueryDistance(_dist_stats(), resolution=0.01)
        population = [
            _area([ColumnConstantPredicate(T_A, Op.GE, 0.25 * k)],
                  [ColumnConstantPredicate(T_S, Op.NE, "xyz"[k % 3])])
            for k in range(6)]
        pack = PackedPartition(population[:1], metric)
        for area in population[1:]:
            pack.extend([area])
        spare = max(len(pack._table) - pack.n_predicates,
                    len(pack._clause_len) - pack.n_clauses)
        assert spare > 0
        wide = spare + 3
        query = _area(*([ColumnConstantPredicate(T_A1, Op.LE, 0.125 * k)]
                        for k in range(wide)))
        before = {name: getattr(pack, name).copy() for name in _PROBED}
        read = []
        pair_rows = PackedPartition.pair_rows

        def reading(self, i, js):
            read.append(self)
            return pair_rows(self, i, js)

        monkeypatch.setattr(PackedPartition, "pair_rows", reading)
        row = pack.probe(query)
        (probed,) = read
        assert len(probed._table) == probed.n_predicates \
            == pack.n_predicates + wide
        assert len(probed._clause_len) == probed.n_clauses \
            == pack.n_clauses + wide
        m = len(population)
        held = PackedPartition(population + [query], metric)
        assert row.tobytes() == held.pair_rows(m, range(m)).tobytes()
        for name, table in before.items():
            after = getattr(pack, name)
            assert after.shape == table.shape, name
            assert after.tobytes() == table.tobytes(), name
