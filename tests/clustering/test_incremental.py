"""Incremental DBSCAN parity with batch weighted DBSCAN.

The load-bearing property: after *every* prefix of a shuffled arrival
stream, :meth:`IncrementalDBSCAN.labels` equals a from-scratch
``DBSCAN.fit`` over the same population and weights — exactly,
including cluster numbering, because both derive labels from the same
canonical form (core-graph components ranked by minimal core index;
borders take the minimal neighbouring cluster id).  Checked by
hypothesis at radii below and at or above 1/2, and over nested table
sets whose partitions lie 1/4, 1/3, 1/2 and 1 apart, at radii on both
sides of each, so that neighbourhoods reach across partitions.

The clusterer keeps its labels between structure changes, so parity
is also checked when labels are read only after every k-th arrival,
with several appends and structure changes between two reads.

Structural repair is pinned separately: core promotion by weight bump
and cluster merge through a bridging arrival.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import DBSCAN, NOISE, IncrementalDBSCAN
from repro.core.area import AccessArea
from repro.distance import DistanceMatrix, QueryDistance
from repro.obs.metrics import MetricsRegistry
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)


def _stats():
    schema = Schema("inc")
    for name in ("T", "S"):
        schema.add(Relation(name, (
            Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "x"): Interval(0.0, 100.0),
        ("S", "x"): Interval(0.0, 100.0),
    })


def _window(relation, lo, hi, relations=None):
    ref = ColumnRef(relation, "x")
    return AccessArea(relations or (relation,), CNF.of([
        Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
        Clause.of([ColumnConstantPredicate(ref, Op.LE, hi)]),
    ]))


def _half(relation, op, value):
    ref = ColumnRef(relation, "x")
    return AccessArea((relation,), CNF.of([
        Clause.of([ColumnConstantPredicate(ref, op, value)]),
    ]))


windows = st.builds(
    lambda rel, lo, width: _window("T" if rel else "S", lo, lo + width),
    st.booleans(),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.5, max_value=20.0))

half_windows = st.builds(
    lambda value, le: _half("T", Op.LE if le else Op.GE, value),
    st.floats(min_value=0.0, max_value=100.0),
    st.booleans())

areas = st.one_of(windows, half_windows)

#: Table sets {T} ⊂ {T,S} ⊂ {T,S,U} ⊂ {T,S,U,V}: consecutive ones lie
#: 1/2, 1/3 and 1/4 apart in ``d_tables``, and {S} lies 1 from {T}.
TABLE_SETS = (("T",), ("T", "S"), ("T", "S", "U"), ("T", "S", "U", "V"),
              ("S",))

nested_windows = st.builds(
    lambda tables, lo, width: _window(tables[0], lo, lo + width, tables),
    st.sampled_from(TABLE_SETS),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.5, max_value=20.0))

#: Radii on both sides of every distance between table sets above.
NESTED_RADII = [0.2, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.6, 0.9, 1.0, 1.1]


def _streams(vocabulary):
    """Arrival streams with heavy repetition (SkyServer-style): a small
    base vocabulary sampled with replacement, order shuffled by the
    index sequence."""
    return st.builds(
        lambda base, picks: [base[p % len(base)] for p in picks],
        st.lists(vocabulary, min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=1_000_000),
                 min_size=1, max_size=25))


streams = _streams(areas)

#: Streams in which every area of the vocabulary arrives, so that most
#: hold several table sets, in an order hypothesis permutes.
nested_streams = st.builds(
    lambda base, picks: base + [base[p % len(base)] for p in picks],
    st.lists(nested_windows, min_size=2, max_size=8),
    st.lists(st.integers(min_value=0, max_value=1_000_000),
             max_size=17)).flatmap(st.permutations)


def _batch_labels(metric, population, weights, eps, min_pts):
    result = DBSCAN(eps=eps, min_pts=min_pts).fit(
        population, matrix=DistanceMatrix.compute(population, metric),
        weights=weights)
    return list(result.labels)


def _assert_prefix_parity(stream, *, eps, min_pts):
    metric = QueryDistance(_stats())
    inc = IncrementalDBSCAN(metric, eps=eps, min_pts=min_pts,
                            registry=MetricsRegistry())
    seen, indices = [], []
    for arrival in stream:
        update = inc.add(arrival)
        seen.append(arrival)
        indices.append(update.index)
        population, weights = inc.areas(), inc.weights()
        want = _batch_labels(metric, population, weights, eps, min_pts)
        assert inc.labels() == want
        for i in range(len(population)):
            assert inc.label_of(i) == want[i]
        # Per arrival: each maps to its representative, whose weight
        # counts its arrivals and whose label the update reports.
        assert [population[i] for i in indices] == seen
        assert [indices.count(i) for i in range(len(population))] \
            == weights
        assert update.label == want[update.index]


class TestPrefixParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams,
           eps=st.sampled_from([0.5, 0.6, 0.9]),
           min_pts=st.integers(min_value=1, max_value=4))
    def test_dense_backend(self, stream, eps, min_pts):
        """Radii at or above 1/2."""
        _assert_prefix_parity(stream, eps=eps, min_pts=min_pts)

    @settings(max_examples=40, deadline=None)
    @given(stream=streams,
           eps=st.sampled_from([0.05, 0.15, 0.3]),
           min_pts=st.integers(min_value=1, max_value=4))
    def test_sparse_backend(self, stream, eps, min_pts):
        """Radii below 1/2."""
        _assert_prefix_parity(stream, eps=eps, min_pts=min_pts)

    @settings(max_examples=150, deadline=None)
    @given(stream=nested_streams,
           eps=st.sampled_from(NESTED_RADII),
           min_pts=st.integers(min_value=1, max_value=4))
    @example(stream=[_window("T", 10, 20, tables)
                     for tables in TABLE_SETS[:4]] * 2,
             eps=0.3, min_pts=2)
    @example(stream=[_window("T", 10 + k, 20 + k, tables)
                     for k, tables in enumerate(TABLE_SETS[3::-1])],
             eps=0.4, min_pts=2)
    def test_nested_table_sets(self, stream, eps, min_pts):
        """Neighbourhoods across partitions: an arrival whose table set
        lowers the partition exactness bound to ``eps`` or below is
        clustered like any other."""
        _assert_prefix_parity(stream, eps=eps, min_pts=min_pts)


def _assert_sparse_parity(stream, *, eps, min_pts, every):
    """Labels read only after every ``every``-th arrival and at the end
    equal batch DBSCAN over that prefix."""
    metric = QueryDistance(_stats())
    inc = IncrementalDBSCAN(metric, eps=eps, min_pts=min_pts,
                            registry=MetricsRegistry())
    for n, arrival in enumerate(stream, 1):
        inc.add(arrival)
        if n % every == 0 or n == len(stream):
            assert inc.labels() == _batch_labels(
                metric, inc.areas(), inc.weights(), eps, min_pts)


#: d(LEFT, BRIDGE) ≈ 0.163 and d(BRIDGE, RIGHT) ≈ 0.142, but
#: d(LEFT, RIGHT) ≈ 0.277: at eps = 0.2 the ends connect only through
#: the bridge.  FAR lies 1 away in ``d_tables``.
LEFT, RIGHT = _window("T", 10, 20), _window("T", 24, 34)
BRIDGE, FAR = _window("T", 17, 27), _window("S", 70, 80)


class TestSparseReads:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams,
           eps=st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.6, 0.9]),
           min_pts=st.integers(min_value=1, max_value=4),
           every=st.integers(min_value=1, max_value=7))
    # Read after three quiet inserts; then LEFT and RIGHT promote by
    # weight alone and BRIDGE merges them before the next read.
    @example(stream=[LEFT, RIGHT, FAR, LEFT, RIGHT, BRIDGE, FAR],
             eps=0.2, min_pts=2, every=3)
    def test_streams(self, stream, eps, min_pts, every):
        _assert_sparse_parity(stream, eps=eps, min_pts=min_pts,
                              every=every)

    @settings(max_examples=60, deadline=None)
    @given(stream=nested_streams,
           eps=st.sampled_from(NESTED_RADII),
           min_pts=st.integers(min_value=1, max_value=4),
           every=st.integers(min_value=1, max_value=7))
    def test_nested_table_sets(self, stream, eps, min_pts, every):
        _assert_sparse_parity(stream, eps=eps, min_pts=min_pts,
                              every=every)


class TestStructuralRepair:
    def _clusterer(self, eps=0.1, min_pts=3, **kwargs):
        return IncrementalDBSCAN(QueryDistance(_stats()), eps=eps,
                                 min_pts=min_pts,
                                 registry=MetricsRegistry(), **kwargs)

    def test_weight_bump_promotes_core(self):
        inc = self._clusterer(min_pts=3)
        update = inc.add(_window("T", 10, 20))
        assert update.label == NOISE and update.new_point
        inc.add(_window("T", 10, 20))
        update = inc.add(_window("T", 10, 20))
        assert update.interned_hit and not update.new_point
        assert update.promotions == 1 and update.new_clusters == 1
        assert update.label == 0
        assert inc.n_unique == 1 and inc.n_clusters == 1

    def test_bridging_arrival_merges_clusters(self):
        # d(left, bridge) ≈ 0.163, d(bridge, right) ≈ 0.142, but
        # d(left, right) ≈ 0.277: at eps=0.2 the ends only connect
        # through the bridge.
        inc = self._clusterer(eps=0.2, min_pts=2)
        left, right = _window("T", 10, 20), _window("T", 24, 34)
        inc.add(left, count=2)
        inc.add(right, count=2)
        assert inc.n_clusters == 2
        # A window overlapping both ends up within eps of each side.
        update = inc.add(_window("T", 17, 27), count=2)
        assert update.merges >= 1
        assert update.structure_changed
        assert inc.n_clusters == 1
        assert len(set(inc.labels())) == 1


def _joined(*relations):
    return AccessArea(relations, CNF.of([Clause.of([
        ColumnConstantPredicate(ColumnRef("T", "x"), Op.GE, 1.0)])]))


class TestJoinAcrossPartitions:
    def test_new_partition_below_eps_clustered(self):
        # d_tables({T,S}, {T,S,U}) = 1/3 lies within eps = 0.4, so the
        # three-table area is a neighbour of the two-table one across
        # partitions, at d = 1/3 + d_conj = 1/3.
        metric = QueryDistance(_stats())
        inc = IncrementalDBSCAN(metric, eps=0.4, min_pts=2,
                                registry=MetricsRegistry())
        inc.add(_joined("T", "S"))
        update = inc.add(_joined("T", "S", "U"))
        assert update.new_point and update.new_clusters == 1
        assert inc.labels() == [0, 0] == _batch_labels(
            metric, inc.areas(), inc.weights(), 0.4, 2)


class TestTelemetryAndValidation:
    def test_metrics_flow_through_registry(self):
        registry = MetricsRegistry()
        inc = IncrementalDBSCAN(QueryDistance(_stats()), eps=0.1,
                                min_pts=2, registry=registry)
        area = _window("T", 10, 20)
        inc.add(area)
        inc.add(area)
        def value(name):
            return registry.counter(name).value
        assert value("repro_incremental_arrivals_total") == 2
        assert value("repro_incremental_inserts_total") == 1
        assert value("repro_incremental_hits_total") == 1
        assert value("repro_incremental_promotions_total") == 1
        assert registry.gauge("repro_incremental_population").value == 1
        assert registry.gauge("repro_incremental_clusters").value == 1
        hist = registry.histogram("repro_incremental_update_seconds")
        assert hist.count == 2

    def test_add_looks_up_no_instrument(self, monkeypatch):
        # Instruments are bound at construction; a registry lookup per
        # arrival takes the registry's lock and builds a label key.
        registry = MetricsRegistry()
        inc = IncrementalDBSCAN(QueryDistance(_stats()), eps=0.1,
                                min_pts=2, registry=registry)
        lookups = []
        for name in ("counter", "gauge", "histogram"):
            original = getattr(MetricsRegistry, name)

            def counting(reg, *args, _original=original, **kwargs):
                lookups.append(args)
                return _original(reg, *args, **kwargs)

            monkeypatch.setattr(MetricsRegistry, name, counting)
        for i in range(100):
            inc.add(_window("T", i % 10, i % 10 + 5))
        assert lookups == []
        monkeypatch.undo()
        assert registry.counter(
            "repro_incremental_arrivals_total").value == 100
        assert registry.counter(
            "repro_incremental_inserts_total").value == 10

    def test_parameter_validation(self):
        metric = QueryDistance(_stats())
        with pytest.raises(ValueError, match="eps"):
            IncrementalDBSCAN(metric, eps=-0.1)
        with pytest.raises(ValueError, match="min_pts"):
            IncrementalDBSCAN(metric, eps=0.1, min_pts=0)
        inc = IncrementalDBSCAN(metric, eps=0.1,
                                registry=MetricsRegistry())
        with pytest.raises(ValueError, match="count"):
            inc.add(_window("T", 0, 10), count=0)

    def test_summary_mentions_population(self):
        inc = IncrementalDBSCAN(QueryDistance(_stats()), eps=0.1,
                                min_pts=1, registry=MetricsRegistry())
        inc.add(_window("T", 10, 20), count=3)
        text = inc.summary()
        assert "1 unique" in text and "3 arrivals" in text
