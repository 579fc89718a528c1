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

A pack holds per-predicate features and per-clause and per-area ids
only.  One grown area by area (or chunk by chunk) must hold exactly the
features and ids of one packed from scratch and answer every
``pair_rows`` and ``condensed_block()`` like it and the oracle, refuse
before changing anything, and call the oracle's per-predicate helpers
only for predicates it has not packed yet.  Its arrays stay linear in
its predicates, clauses and area slots.

Every distance is a row of one routine, over a band of areas: a block
computed in bands of any size equals the oracle, and a band of one is
``pair_rows`` and ``probe``.  A block's temporaries stay within the
band budget.

A pack reads no table sets: over areas of several table sets, the
Jaccard ``d_tables`` plus the pack's ``d_conj`` is the full metric, and
the dense fill over one pack equals the per-pair matrix, areas the
kernel refuses included.  A probe of a shared pack scores the query as
a pack holding it would, leaves every array of the shared pack
byte-identical, and the pack grows afterwards exactly as one never
probed.
"""

import math
import random
import tracemalloc

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
from repro.distance import (BlockSparseDistanceMatrix, DistanceMatrix,
                            QueryDistance, condensed_index)
from repro.distance.kernel import (BAND_FLOATS, KernelUnsupported,
                                   PackedPartition)
from repro.obs.metrics import MetricsRegistry
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
    """The block a one-partition block-sparse matrix stores equals the
    per-pair oracle's; returns the ``repro_kernel_*`` counts its fill
    recorded."""
    metric = QueryDistance(stats, resolution=resolution)
    registry = MetricsRegistry()
    matrix = BlockSparseDistanceMatrix.compute(areas, metric,
                                               registry=registry)
    assert matrix.n_partitions == 1
    kstats = {name: registry.counter(f"repro_kernel_{name}_total").value
              for name in ("partitions_packed", "partitions_fallback",
                           "pairs_fallback")}
    if expect_packed is True:
        assert kstats["partitions_packed"] == 1, kstats
    if expect_packed is False:
        assert kstats["partitions_fallback"] == 1, kstats
    want = _oracle_block(stats, areas, resolution)
    got = list(matrix._blocks[0].condensed)
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


def _banded(pack, size):
    """``pack.condensed_block()`` computed in bands of ``size`` areas."""
    m = pack.n_areas
    pack._band_stops = lambda: \
        list(range(size, m - 1, size)) + [m - 1] if m > 1 else []
    try:
        return pack.condensed_block()
    finally:
        del pack._band_stops


class TestBands:
    """Every band size computes the same block, and a band of one is
    the insert row and the probe."""

    @settings(max_examples=40, deadline=None)
    @given(population=populations, resolution=resolutions)
    def test_every_band_size_equals_oracle(self, population, resolution):
        stats = _dist_stats()
        metric = QueryDistance(stats, resolution=resolution)
        pack = PackedPartition(population, metric)
        want = _oracle_block(stats, population, resolution)
        m = len(population)
        for size in range(1, m + 1):
            assert list(_banded(pack, size)) == want, size
        ones = _banded(pack, 1)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            assert list(pack.pair_rows(i, others)) \
                == [ones[condensed_index(i, j, m)] for j in others]
            if i:
                probe = PackedPartition(population[:i],
                                        metric).probe(population[i])
                assert list(probe) \
                    == [ones[condensed_index(j, i, m)] for j in range(i)]


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
        assert kstats["pairs_fallback"] == 1

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


class TestWideIntegersAtResolutionZero:
    """Resolution 0 keeps integer constants and access bounds in the
    footprints, and the oracle forms their widths and unions in exact
    integer arithmetic.  Past 2**51 (SkyServer ``specobjid`` ranges)
    float64 can round those sums differently; such pairs take the
    oracle's formula, so the pack still packs them and equals it."""

    LO, HI = 299489677444933632, 3300000000000000000

    def _catalog(self):
        schema = Schema("wide")
        schema.add(Relation("T", (
            Column("a", ColumnType.BIGINT, Interval(0.0, 5.0)),
            Column("a1", ColumnType.FLOAT, Interval(0.0, 5.0)))))
        return StatisticsCatalog.from_exact_content(schema, {
            ("T", "a"): Interval(self.LO, self.HI),
            ("T", "a1"): Interval(0.0, 5.0)})

    def _population(self, seed):
        rng = random.Random(seed)
        # Multiples of 2**10 below 2**62 are exact in float64, so the
        # constants themselves pass the exactness refusal.
        def constant():
            return rng.randrange(self.LO >> 10, self.HI >> 10) << 10
        ops = [Op.LE, Op.GE, Op.LT, Op.GT, Op.NE, Op.EQ]
        population = [
            _area([ColumnConstantPredicate(T_A, Op.LE, 1992330826920255488)],
                  [ColumnConstantPredicate(T_A, Op.GE, 1365326393518678016)]),
            _area([ColumnConstantPredicate(T_A, Op.LE, 2007451768556875520)],
                  [ColumnConstantPredicate(T_A, Op.GE, 1361318206045277184)])]
        for _ in range(10):
            clauses = [[ColumnConstantPredicate(T_A, rng.choice(ops),
                                                constant())]
                       for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                clauses.append([ColumnConstantPredicate(T_A, Op.GE,
                                                        constant()),
                                ColumnConstantPredicate(T_A1, Op.LE, 2.5)])
            population.append(_area(*clauses))
        return population

    @pytest.mark.parametrize("seed", range(6))
    def test_block_rows_and_probes_equal_oracle(self, seed):
        stats = self._catalog()
        population = self._population(seed)
        _assert_block_matches(stats, population, 0.0, expect_packed=True)
        metric = QueryDistance(stats, resolution=0.0)
        pack = _grow(population[:-1], metric, [1, 2])
        probe = pack.probe(population[-1])
        pack.extend(population[-1:])
        m = len(population)
        for i in range(m):
            row = pack.pair_rows(i, range(m))
            for j in range(m):
                if i != j:
                    oracle = QueryDistance(stats, resolution=0.0)
                    assert row[j] == oracle(population[i], population[j])
        oracle = QueryDistance(stats, resolution=0.0)
        assert list(probe) == [oracle(population[-1], other)
                               for other in population[:-1]]


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


def _held(pack):
    """The live regions of the feature and id arrays ``pack`` holds."""
    p, c, m = pack.n_predicates, pack.n_clauses, pack.n_areas
    held = {
        "reals": pack._reals[:p], "tags": pack._tags[:p],
        "bits": pack._bits[:p],
        "clause_len": pack._clause_len[:c], "unit_pid": pack._unit_pid[:c],
        "multi": pack._multi, "multi_pids": pack._multi_pids,
        "multi_start": pack._multi_start, "multi_len": pack._multi_len,
        "counts": pack._counts_buf[:m],
        "id_pad": pack._id_pad_buf[:m, :pack._l_max]}
    for gid in range(len(pack._formulas)):
        held[f"members[{gid}]"] = pack._group_members(gid)
    return held


def _state(pack):
    """Everything ``pack`` holds apart from the shared oracle and
    catalog: each array with its capacity, shape, dtype and bytes, each
    lookup and counter."""
    def snapshot(value):
        if isinstance(value, np.ndarray):
            return ("ndarray", value.shape, value.dtype.str,
                    value.tobytes())
        if isinstance(value, (list, tuple)):
            return [snapshot(item) for item in value]
        if isinstance(value, dict):
            return {key: snapshot(item) for key, item in value.items()}
        return value
    return {name: snapshot(value) for name, value in vars(pack).items()
            if name not in ("_oracle", "_stats_catalog")}


def _arrays(pack):
    """Every ndarray ``pack`` holds, by attribute (and list position)."""
    found = {}
    for name, value in vars(pack).items():
        if isinstance(value, np.ndarray):
            found[name] = value
        elif isinstance(value, list):
            for position, item in enumerate(value):
                if isinstance(item, np.ndarray):
                    found[f"{name}[{position}]"] = item
    return found


def _assert_same_pack(grown, scratch):
    for name in ("n_predicates", "n_clauses", "n_areas", "_l_max",
                 "_formulas"):
        assert getattr(grown, name) == getattr(scratch, name), name
    assert grown._pred_ids == scratch._pred_ids
    assert grown._clause_ids == scratch._clause_ids
    want = _held(scratch)
    got = _held(grown)
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


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
    """Growing appends features and ids; they must come out exactly as
    a from-scratch pack has them, and every value as the oracle's."""

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
            _assert_same_pack(grown, scratch)
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
    """A refused extend writes nothing: every array and lookup the pack
    holds stays byte-identical, every row answers as before, and the
    pack grows correctly afterwards."""

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
        before = _state(pack)
        rows = [pack.pair_rows(i, range(len(population))).tobytes()
                for i in range(len(population))]
        counts = (pack.n_predicates, pack.n_clauses, pack.n_areas)
        # New good predicates and clauses ride along with the bad one,
        # so a partial commit would show.
        hostile = _area([ColumnConstantPredicate(T_A, Op.GE, 2.25)],
                        [ColumnConstantPredicate(T_A, Op.LE, 3.75), bad])
        with pytest.raises(KernelUnsupported):
            pack.extend([population[0], hostile])
        assert (pack.n_predicates, pack.n_clauses, pack.n_areas) == counts
        assert _state(pack) == before
        assert [pack.pair_rows(i, range(len(population))).tobytes()
                for i in range(len(population))] == rows

        good = _area([ColumnConstantPredicate(T_A, Op.GE, 2.25)],
                     [ColumnConstantPredicate(T_A, Op.LE, 3.75),
                      ColumnConstantPredicate(T_A, Op.EQ, 0.5)])
        pack.extend([good])
        grown = population + [good]
        scratch = PackedPartition(grown, metric)
        _assert_same_pack(pack, scratch)
        want = _oracle_block(stats, grown, 0.01)
        assert list(pack.condensed_block()) == want
        _assert_rows_match(pack, scratch, want)


class TestInsertIsIncremental:
    """An extend runs the oracle's per-predicate helpers for new
    predicates only, and clamps each new numeric predicate once for
    both its coverage and its widened footprint — counted, not timed."""

    HELPERS = ("_clamp", "_widen", "_categorical_footprint")

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = {name: [] for name in self.HELPERS}

        def counting(name, helper, position):
            def wrapper(*args):
                seen[name].append(args[position])
                return helper(*args)
            return wrapper

        for name in ("_clamp", "_widen"):
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
        assert sorted(map(str, calls["_clamp"])) \
            == sorted(map(str, fresh[:2]))
        assert sorted(map(str, calls["_widen"])) \
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


S_U = ColumnRef("S", "u")

# Areas the kernel refuses: booleans, on a column no other predicate
# uses (``True == 1`` would otherwise make the per-pair matrix's memo
# answer by evaluation order; see the recommender's
# TestBoolAndIntOnOneColumn).
refused_areas = st.builds(
    lambda tables, predicate, clauses_: AccessArea(
        tables, CNF.of([Clause.of([predicate]), *clauses_])),
    st.sampled_from([("S",), ("S", "T")]),
    st.sampled_from([ColumnConstantPredicate(S_U, Op.EQ, True),
                     ColumnConstantPredicate(S_U, Op.NE, False)]),
    st.lists(clauses, max_size=2))


class TestDenseFill:
    """One pack over every area plus the ``d_tables`` table is the
    per-pair matrix, bitwise; pairs that touch an area the kernel
    refuses are evaluated per pair."""

    @staticmethod
    def _assert_dense_equals_pairwise(population, stats, resolution):
        registry = MetricsRegistry()
        matrix = DistanceMatrix.compute(
            population, QueryDistance(stats, resolution=resolution),
            registry=registry)
        want = pairwise_matrix(population,
                               QueryDistance(stats, resolution=resolution))
        assert matrix.to_square().tobytes() == want.tobytes()
        return registry

    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(st.one_of(mixed_areas, mixed_areas,
                                         refused_areas),
                               min_size=1, max_size=10),
           resolution=resolutions)
    def test_mixed_table_sets_equal_pairwise_matrix(self, population,
                                                    resolution):
        registry = self._assert_dense_equals_pairwise(
            population, _dist_stats(), resolution)
        m = len(population)
        refused = sum(
            any(isinstance(getattr(p, "value", None), bool)
                for p in area.cnf.predicates())
            for area in population)
        packed = m - refused
        assert registry.counter(
            "repro_kernel_pairs_vectorized_total").value \
            == packed * (packed - 1) // 2
        assert registry.counter(
            "repro_kernel_pairs_fallback_total").value \
            == m * (m - 1) // 2 - packed * (packed - 1) // 2

    @pytest.mark.parametrize("seed", range(3))
    def test_integers_past_float_range_at_resolution_zero(self, seed):
        wide = TestWideIntegersAtResolutionZero()
        population = wide._population(seed)
        # Odd integers past 2**53 have no float64: the kernel refuses
        # these areas at resolution 0.
        for k, op in enumerate((Op.LE, Op.GE, Op.EQ)):
            population.insert(3 * k + 1, _area(
                [ColumnConstantPredicate(T_A, op, 2 ** 60 + 2 * k + 1)]))
        registry = self._assert_dense_equals_pairwise(
            population, wide._catalog(), 0.0)
        assert registry.counter(
            "repro_kernel_pairs_fallback_total").value > 0


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
        before = _state(pack)
        m = len(population)
        rows = [pack.pair_rows(i, range(m)).tobytes() for i in range(m)]

        row = pack.probe(query)

        held = PackedPartition(population + [query], metric)
        assert row.tobytes() == held.pair_rows(m, range(m)).tobytes()
        oracle = QueryDistance(_dist_stats(), resolution=resolution)
        assert list(row) == [oracle.d_conj(query.cnf, area.cnf)
                             for area in population]
        assert _state(pack) == before
        assert [pack.pair_rows(i, range(m)).tobytes()
                for i in range(m)] == rows
        # The probed pack still grows exactly as an unprobed one.
        pack.extend([query])
        _assert_same_pack(pack, held)

    def test_probe_wider_than_spare_capacity(self):
        """A query bringing more new predicates and clauses than the
        shared pack has spare room for reallocates nothing: the pack
        keeps every array object with its bytes."""
        metric = QueryDistance(_dist_stats(), resolution=0.01)
        population = [
            _area([ColumnConstantPredicate(T_A, Op.GE, 0.25 * k)],
                  [ColumnConstantPredicate(T_S, Op.NE, "xyz"[k % 3])])
            for k in range(6)]
        pack = PackedPartition(population[:1], metric)
        for area in population[1:]:
            pack.extend([area])
        spare = max(len(pack._reals) - pack.n_predicates,
                    len(pack._clause_len) - pack.n_clauses)
        assert spare > 0
        wide = spare + 3
        query = _area(*([ColumnConstantPredicate(T_A1, Op.LE, 0.125 * k)]
                        for k in range(wide)))
        arrays = _arrays(pack)
        before = _state(pack)
        row = pack.probe(query)
        assert _arrays(pack).keys() == arrays.keys()
        assert all(array is arrays[name]
                   for name, array in _arrays(pack).items())
        assert _state(pack) == before
        m = len(population)
        held = PackedPartition(population + [query], metric)
        assert row.tobytes() == held.pair_rows(m, range(m)).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(population=st.lists(mixed_areas, min_size=1, max_size=6),
           queries=st.lists(mixed_areas, min_size=1, max_size=4),
           later=st.lists(mixed_areas, min_size=0, max_size=4),
           resolution=resolutions)
    def test_probed_then_grown_answers_as_never_probed(
            self, population, queries, later, resolution):
        """Probes stage new groups, keys and bit positions without
        committing them: a pack probed and then grown by the queries
        and later areas holds and answers exactly what a pack that
        was never probed holds and answers."""
        metric = QueryDistance(_dist_stats(), resolution=resolution)
        probed = _grow(population, metric, [1])
        for query in queries:
            probed.probe(query)
        plain = _grow(population, metric, [1])
        grown = population + queries + later
        for pack in (probed, plain):
            for area in queries + later:
                pack.extend([area])
        _assert_same_pack(probed, plain)
        assert probed.condensed_block().tobytes() \
            == plain.condensed_block().tobytes()
        m = len(grown)
        for i in range(m):
            assert probed.pair_rows(i, range(m)).tobytes() \
                == plain.pair_rows(i, range(m)).tobytes()


# -- resolution 0 and resource bounds ----------------------------------------


class TestTwoSlotFootprints:
    """At resolution 0 a ``<>`` predicate keeps two rays, the only
    footprints whose slot pairs a pair formula could add in either
    order."""

    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(areas, min_size=2, max_size=8),
           chunks=st.lists(st.integers(min_value=1, max_value=3),
                           min_size=1, max_size=4))
    def test_old_rows_after_extends_equal_oracle_both_orders(
            self, population, chunks):
        stats = _dist_stats()
        metric = QueryDistance(stats, resolution=0.0)
        rays = [_area([ColumnConstantPredicate(T_A, Op.NE, 1.0 + k)],
                      [ColumnConstantPredicate(T_A, Op.NE, 2.5),
                       ColumnConstantPredicate(T_A1, Op.NE, 0.5 * k)])
                for k in range(3)]
        population = rays[:1] + population + rays[1:]
        pack = _grow(population, metric, chunks)
        assert pack._slots == 2
        m = len(population)
        # Every area is old to the areas after it: its row, read after
        # they were packed, against each of them alone.
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                first = QueryDistance(stats, resolution=0.0)
                second = QueryDistance(stats, resolution=0.0)
                value = pack.pair_rows(i, [j])[0]
                assert value == first(population[i], population[j])
                assert value == second(population[j], population[i])


def _generator_areas(n_queries, seed=3):
    """A generator log's unique areas, in arrival order, with the
    catalog that observed them."""
    from repro.core.extractor import AccessAreaExtractor
    from repro.schema import CONTENT_BOUNDS, skyserver_schema
    from repro.workload import WorkloadConfig, generate_workload

    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    seen, unique = set(), []
    workload = generate_workload(WorkloadConfig(n_queries=n_queries,
                                                seed=seed))
    for sql, _ in workload.log.statements_with_users():
        try:
            area = extractor.extract(sql).area
        except Exception:
            continue
        stats.observe_cnf(area.cnf)
        if area not in seen:
            seen.add(area)
            unique.append(area)
    return unique, stats


def _generator_partition(n_queries=1200, seed=3):
    """The largest table-set partition of a generator log's unique
    areas, in arrival order, with the catalog that observed them."""
    unique, stats = _generator_areas(n_queries, seed)
    groups: dict = {}
    for area in unique:
        groups.setdefault(area.table_set, []).append(area)
    return max(groups.values(), key=len), stats


#: Bytes per predicate, clause and area slot the pack may hold.  A
#: predicate takes 96 (80 bytes of features, one bitset word, a group
#: member id), a clause 16 and an area slot 8; capacity doubling at
#: most doubles each linear array and quadruples the padded (m × L)
#: clause-id array.  The 224-area partition below peaks at 61.
_BYTES_PER_ITEM = 256


class TestMemoryBound:
    def test_held_bytes_are_linear(self):
        """Grown area by area, the ndarrays a pack holds stay within
        ``_BYTES_PER_ITEM · (P + C + m·L)`` at every step: features
        and ids only, no table quadratic in predicates or clauses."""
        part, stats = _generator_partition()
        assert len(part) >= 100
        metric = QueryDistance(stats, resolution=0.01)
        pack = PackedPartition(part[:1], metric)
        largest = 0
        for area in part[1:]:
            pack.extend([area])
            pack.pair_rows(pack.n_areas - 1, range(pack.n_areas - 1))
            held = sum(array.nbytes for array in _arrays(pack).values())
            assert pack._bits.shape[1] == 1
            size = (pack.n_predicates + pack.n_clauses
                    + pack.n_areas * max(pack._l_max, 1))
            assert held <= _BYTES_PER_ITEM * size, (
                f"{held} bytes for P={pack.n_predicates}, "
                f"C={pack.n_clauses}, m={pack.n_areas}, "
                f"L={pack._l_max}")
            largest = max(largest, held)
        assert pack.n_predicates > 100
        # A P×P float table alone would be 8·P² bytes.
        assert largest < 8 * pack.n_predicates ** 2

    def test_block_peak_is_output_plus_one_band(self):
        """A block over thousands of areas allocates its output and,
        band by band, at most :data:`BAND_FLOATS` floats more: no table
        quadratic in predicates, clauses or areas besides the output."""
        unique, stats = _generator_areas(3000)
        population = unique[:2000]
        assert len(population) == 2000
        pack = PackedPartition(population, QueryDistance(stats))
        assert pack.n_clauses > 2000
        output = 8 * 2000 * 1999 // 2
        tracemalloc.start()
        try:
            pack.condensed_block()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= output + 8 * BAND_FLOATS, (
            f"peak {peak / 2**20:.1f} MiB for a "
            f"{output / 2**20:.1f} MiB block")
