"""Cluster aggregation: MBRs, 3σ trimming, categorical/join constraints."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.core.area import AccessArea
from repro.clustering import aggregate_cluster
from repro.clustering.aggregation import _trim
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

T_U = ColumnRef("T", "u")
T_S = ColumnRef("T", "s")


def window(lo, hi):
    return AccessArea(("T",), CNF.of([
        Clause.of([ColumnConstantPredicate(T_U, Op.GE, lo)]),
        Clause.of([ColumnConstantPredicate(T_U, Op.LE, hi)]),
    ]))


def _stats():
    schema = Schema("agg")
    schema.add(Relation("T", (
        Column("u", ColumnType.FLOAT, Interval(0.0, 100.0)),
        Column("s", ColumnType.VARCHAR, categories=("a", "b")),
    )))
    return StatisticsCatalog.from_exact_content(
        schema, {("T", "u"): Interval(0.0, 100.0)})


class TestMBR:
    def test_mbr_of_windows(self):
        members = [window(1, 9), window(2, 8), window(1.5, 9.5)]
        agg = aggregate_cluster(0, members)
        bound = agg.bound_for(T_U)
        assert bound.interval == Interval(1, 9.5)
        assert agg.cardinality == 3

    def test_majority_relations(self):
        members = [window(1, 9), window(2, 8),
                   AccessArea(("S",), CNF.true())]
        agg = aggregate_cluster(0, members)
        assert agg.relations == ("T",)

    def test_point_lookups_aggregate_to_range(self):
        members = [
            AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(T_U, Op.EQ, value)])]))
            for value in [5, 7, 6, 5.5, 6.5]
        ]
        agg = aggregate_cluster(0, members)
        assert agg.bound_for(T_U).interval == Interval(5, 7)


class TestSigmaTrimming:
    def test_outlier_bound_trimmed(self):
        members = [window(10, 20) for _ in range(30)] + [window(10, 2000)]
        trimmed = aggregate_cluster(0, members, sigma=3.0)
        assert trimmed.bound_for(T_U).interval.hi == 20

    def test_trimming_disabled_with_inf_sigma(self):
        members = [window(10, 20) for _ in range(30)] + [window(10, 2000)]
        untrimmed = aggregate_cluster(0, members, sigma=math.inf)
        assert untrimmed.bound_for(T_U).interval.hi == 2000

    def test_uniform_bounds_survive(self):
        members = [window(10, 20)] * 10
        agg = aggregate_cluster(0, members, sigma=3.0)
        assert agg.bound_for(T_U).interval == Interval(10, 20)


class TestColumnSupport:
    def test_rare_column_dropped(self):
        extra = AccessArea(("T",), CNF.of([
            Clause.of([ColumnConstantPredicate(T_U, Op.GE, 1)]),
            Clause.of([ColumnConstantPredicate(
                ColumnRef("T", "v"), Op.LE, 5)]),
        ]))
        members = [window(1, 9)] * 9 + [extra]
        agg = aggregate_cluster(0, members, column_support=0.5)
        assert agg.bound_for(ColumnRef("T", "v")) is None
        assert agg.bound_for(T_U) is not None


class TestOneSidedBounds:
    def test_lower_bound_only(self):
        members = [
            AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(T_U, Op.GT, value)])]))
            for value in [50, 52, 51]
        ]
        agg = aggregate_cluster(0, members, stats=_stats())
        bound = agg.bound_for(T_U)
        assert bound.lower_bounded and not bound.upper_bounded
        # The open side closes at access(a).
        assert bound.interval.hi == 100.0
        assert ">=" in bound.describe()


class TestCategoricalAndJoins:
    def test_categorical_values_unioned(self):
        def cat(value):
            return AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(T_S, Op.EQ, value)])]))

        agg = aggregate_cluster(0, [cat("a"), cat("a"), cat("b")])
        assert agg.categorical[0].values == frozenset({"a", "b"})

    def test_join_predicate_kept_when_common(self):
        join = ColumnColumnPredicate(T_U, Op.EQ, ColumnRef("S", "u"))
        members = [
            AccessArea(("S", "T"), CNF.of([Clause.of([join])]))
            for _ in range(4)
        ]
        agg = aggregate_cluster(0, members)
        assert agg.joins == (join,)

    def test_rare_join_dropped(self):
        join = ColumnColumnPredicate(T_U, Op.EQ, ColumnRef("S", "u"))
        with_join = AccessArea(("S", "T"), CNF.of([Clause.of([join])]))
        members = [window(1, 9)] * 9 + [with_join]
        agg = aggregate_cluster(0, members)
        assert agg.joins == ()


class TestDescribe:
    def test_description_format(self):
        agg = aggregate_cluster(0, [window(10, 20)] * 3)
        assert agg.describe() == "10 <= T.u <= 20"

    def test_unconstrained_cluster(self):
        agg = aggregate_cluster(0, [AccessArea(("T",), CNF.true())] * 3)
        assert agg.describe() == "all of T"


class TestToSql:
    def test_window_to_between(self):
        agg = aggregate_cluster(0, [window(10, 20)] * 3)
        assert agg.to_sql() == \
            "SELECT * FROM T WHERE T.u BETWEEN 10 AND 20"

    def test_unconstrained(self):
        agg = aggregate_cluster(0, [AccessArea(("T",), CNF.true())] * 3)
        assert agg.to_sql() == "SELECT * FROM T"

    def test_categorical_in_list(self):
        def cat(value):
            return AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(T_S, Op.EQ, value)])]))

        agg = aggregate_cluster(0, [cat("a"), cat("b"), cat("a")])
        assert "T.s IN ('a', 'b')" in agg.to_sql()

    def test_join_predicate_rendered(self):
        join = ColumnColumnPredicate(T_U, Op.EQ, ColumnRef("S", "u"))
        members = [AccessArea(("S", "T"), CNF.of([Clause.of([join])]))] * 3
        agg = aggregate_cluster(0, members)
        sql = agg.to_sql()
        assert "FROM S, T" in sql and "S.u = T.u" in sql

    def test_one_sided_bound(self):
        members = [
            AccessArea(("T",), CNF.of([Clause.of([
                ColumnConstantPredicate(T_U, Op.GT, 50)])]))
            for _ in range(3)
        ]
        agg = aggregate_cluster(0, members)  # no stats: open side stays
        assert "T.u >= 50" in agg.to_sql()

    def test_generated_sql_reparses_and_extracts(self):
        from repro.core import AccessAreaExtractor
        agg = aggregate_cluster(0, [window(10, 20)] * 3)
        area = AccessAreaExtractor(None).extract(agg.to_sql()).area
        # No schema: relation names canonicalize to lowercase.
        assert str(area.cnf) == "t.u <= 20 AND t.u >= 10"


class TestTrimRobustness:
    """Regression battery for the degenerate cases of ``_trim``: no
    input may ever erase a bound or raise."""

    def _trim(self, values, sigma=3.0):
        return _expand(_trim([(value, 1) for value in values], sigma))

    def test_empty_passthrough(self):
        assert self._trim([]) == []

    def test_under_three_values_passthrough(self):
        assert self._trim([1.0]) == [1.0]
        assert self._trim([1.0, 1e12]) == [1.0, 1e12]

    def test_identical_values_zero_std(self):
        values = [5.0] * 10
        assert self._trim(values) == values

    def test_inf_sigma_disables(self):
        values = [1.0, 2.0, 1e12]
        assert self._trim(values, math.inf) == values

    def test_nan_value_passthrough(self):
        # A NaN poisons mean/std; trimming must bail out, not drop all.
        values = [1.0, 2.0, math.nan]
        assert self._trim(values) == values

    def test_overflowing_values_passthrough(self):
        # Squaring 1e200 overflows the variance accumulator to inf.
        values = [1e200, -1e200, 0.0]
        assert self._trim(values) == values

    def test_everything_outlier_falls_back(self):
        # sigma so tight nothing survives: return the original list,
        # never an empty bound.
        values = [0.0, 1.0, 10.0, 11.0]
        trimmed = self._trim(values, sigma=1e-9)
        assert trimmed == values

    def test_normal_case_still_trims(self):
        values = [10.0] * 30 + [2000.0]
        assert 2000.0 not in self._trim(values)

    def test_aggregate_with_nan_bound_does_not_raise(self):
        members = [window(10, 20), window(10, 21),
                   window(10, math.nan)]
        agg = aggregate_cluster(0, members, sigma=3.0)
        assert agg.cardinality == 3

    def test_aggregate_constant_cluster_keeps_bound(self):
        members = [window(10, 20)] * 5
        agg = aggregate_cluster(0, members, sigma=1e-12)
        assert agg.bound_for(T_U).interval == Interval(10, 20)


def _expand(runs):
    return [value for value, count in runs for _ in range(count)]


def _trim_repeated(values, sigma):
    """The repetition code :func:`_trim` replaced, kept as its oracle:
    every value repeated, summed and filtered one copy at a time."""
    if len(values) < 3 or math.isinf(sigma):
        return values
    mean = sum(values) / len(values)
    if not math.isfinite(mean):
        return values
    try:
        variance = sum((v - mean) ** 2 for v in values) / len(values)
    except OverflowError:
        return values
    std = math.sqrt(variance)
    if std == 0 or not math.isfinite(std):
        return values
    kept = [v for v in values if abs(v - mean) <= sigma * std]
    return kept or values


# Bounds near one another with the odd outlier, spellings that compare
# equal (5 and 5.0, 0.0 and -0.0), integers past the float mantissa, and
# values whose spread overflows or poisons the statistics.
_bound_values = st.one_of(
    st.floats(min_value=9.0, max_value=11.0),
    st.floats(min_value=9.0, max_value=11.0),
    st.integers(min_value=8, max_value=12),
    st.sampled_from([5, 5.0, 0.0, -0.0, 2 ** 60 + 1, 1000.0, -1e3,
                     1e200, -1e200, math.nan]))


class TestTrimByMultiplicity:
    """``_trim`` over ``(value, count)`` runs answers bitwise what the
    repetition code answers over the repeated values, and a weighted
    aggregate equals the aggregate of its repeated members."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(_bound_values,
                                   st.integers(min_value=1, max_value=40)),
                         max_size=8),
           sigma=st.sampled_from([3.0, 1.0, 0.5, 1e-9, math.inf]))
    def test_runs_equal_repetition(self, runs, sigma):
        got = _expand(_trim(runs, sigma))
        want = _trim_repeated(_expand(runs), sigma)
        # repr: bitwise, so 5 vs 5.0, -0.0 and NaN all count.
        assert [repr(v) for v in got] == [repr(v) for v in want]
        if want:
            assert repr(min(got)) == repr(min(want))
            assert repr(max(got)) == repr(max(want))

    @settings(max_examples=100, deadline=None)
    @given(spec=st.lists(
        st.tuples(_bound_values.filter(lambda v: abs(v) < 1e6),
                  st.floats(min_value=0.0, max_value=5.0),
                  st.integers(min_value=1, max_value=30)),
        min_size=1, max_size=6),
        sigma=st.sampled_from([3.0, 1.0, math.inf]))
    def test_weighted_aggregate_equals_repeated(self, spec, sigma):
        members = [window(lo, lo + width) for lo, width, _count in spec]
        weights = [count for _lo, _width, count in spec]
        weighted = aggregate_cluster(0, members, _stats(), sigma=sigma,
                                     weights=weights)
        repeated = aggregate_cluster(
            0, [area for area, count in zip(members, weights)
                for _ in range(count)], _stats(), sigma=sigma)
        assert repr(weighted) == repr(repeated)
