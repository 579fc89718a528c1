"""Incremental DBSCAN parity with batch weighted DBSCAN.

The load-bearing property: after *every* prefix of a shuffled arrival
stream, :meth:`IncrementalDBSCAN.labels` equals a from-scratch
``DBSCAN.fit`` over the same population and weights — exactly,
including cluster numbering, because both derive labels from the same
canonical form (core-graph components ranked by minimal core index;
borders take the minimal neighbouring cluster id).  Checked by
hypothesis with interning on and off and on both layouts ``eps`` picks:
block-sparse below 1/2, dense at or above it.

Structural repair is pinned separately: core promotion by weight bump,
cluster merge through a bridging arrival, and — on the :meth:`remove`
path — demotion with a component split re-check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.clustering import DBSCAN, NOISE, IncrementalDBSCAN
from repro.core.area import AccessArea
from repro.distance import QueryDistance
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


def _window(relation, lo, hi):
    ref = ColumnRef(relation, "x")
    return AccessArea((relation,), CNF.of([
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

#: Arrival streams with heavy repetition (SkyServer-style): a small
#: base vocabulary sampled with replacement, order shuffled by the
#: index sequence.
streams = st.builds(
    lambda base, picks: [base[p % len(base)] for p in picks],
    st.lists(areas, min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=1_000_000),
             min_size=1, max_size=25))


def _batch_labels(metric, population, weights, eps, min_pts):
    result = DBSCAN(eps=eps, min_pts=min_pts).fit(
        population, distance=metric, weights=weights)
    return list(result.labels)


def _assert_prefix_parity(stream, *, eps, min_pts, intern, backend):
    metric = QueryDistance(_stats())
    inc = IncrementalDBSCAN(metric, eps=eps, min_pts=min_pts,
                            intern=intern, registry=MetricsRegistry())
    assert inc.backend_name == backend
    seen = []
    for arrival in stream:
        inc.add(arrival)
        seen.append(arrival)
        if intern:
            population, weights = inc.areas(), inc.weights()
        else:
            population, weights = list(seen), [1.0] * len(seen)
        want = _batch_labels(metric, population, weights, eps, min_pts)
        assert inc.labels() == want
        for i in range(len(population)):
            assert inc.label_of(i) == want[i]
        expanded = inc.expanded_labels()
        assert len(expanded) == len(seen)
        assert expanded[-1] == inc.labels()[inc.inverse()[-1]]


class TestPrefixParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams,
           eps=st.sampled_from([0.5, 0.6, 0.9]),
           min_pts=st.integers(min_value=1, max_value=4),
           intern=st.booleans())
    def test_dense_backend(self, stream, eps, min_pts, intern):
        _assert_prefix_parity(stream, eps=eps, min_pts=min_pts,
                              intern=intern, backend="dense")

    @settings(max_examples=40, deadline=None)
    @given(stream=streams,
           eps=st.sampled_from([0.05, 0.15, 0.3]),
           min_pts=st.integers(min_value=1, max_value=4),
           intern=st.booleans())
    def test_sparse_backend(self, stream, eps, min_pts, intern):
        _assert_prefix_parity(stream, eps=eps, min_pts=min_pts,
                              intern=intern, backend="sparse")


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

    def test_remove_demotes_and_splits(self):
        # A five-window chain A1–A2–B–C1–C2 at eps=0.215 (B–C2 is
        # 0.221, A1–B 0.270, so only consecutive windows are
        # neighbours).  Weights make every point core (min_pts=6) but
        # leave the bridge B one retraction away from demotion while
        # the flanks keep their heavy outer anchors.
        eps, min_pts = 0.215, 6
        inc = self._clusterer(eps=eps, min_pts=min_pts)
        chain = [(_window("T", 0, 10), 4), (_window("T", 2, 12), 2),
                 (_window("T", 9, 19), 2), (_window("T", 16, 26), 2),
                 (_window("T", 19, 29), 4)]
        for area, count in chain:
            inc.add(area, count=count)
        assert all(inc._core) and inc.n_clusters == 1
        bridge = chain[2][0]
        update = inc.remove(bridge, count=1)
        assert update.demotions == 1 and update.splits == 1
        assert inc.n_clusters == 2
        want = _batch_labels(QueryDistance(_stats()), inc.areas(),
                             inc.weights(), eps, min_pts)
        assert inc.labels() == want

    def test_remove_requires_intern_and_surplus_weight(self):
        area = _window("T", 10, 20)
        inc = self._clusterer(intern=False)
        inc.add(area)
        with pytest.raises(ValueError, match="intern"):
            inc.remove(area)
        inc = self._clusterer()
        inc.add(area)
        with pytest.raises(KeyError):
            inc.remove(_window("T", 50, 60))
        with pytest.raises(ValueError, match="full deletion"):
            inc.remove(area)

    def test_randomized_remove_parity(self):
        rng = np.random.default_rng(5)
        metric = QueryDistance(_stats())
        base = [_window("T", float(lo), float(lo) + 6.0)
                for lo in (0, 2, 4, 30, 32, 70)]
        inc = IncrementalDBSCAN(metric, eps=0.12, min_pts=3,
                                registry=MetricsRegistry())
        counts: dict = {}
        for pick in rng.integers(0, len(base), size=40):
            area = base[int(pick)]
            inc.add(area)
            counts[area] = counts.get(area, 0) + 1
        for _ in range(12):
            removable = [a for a, c in counts.items() if c > 1]
            if not removable:
                break
            area = removable[int(rng.integers(len(removable)))]
            inc.remove(area)
            counts[area] -= 1
            want = _batch_labels(metric, inc.areas(), inc.weights(),
                                 0.12, 3)
            assert inc.labels() == want


def _joined(*relations):
    return AccessArea(relations, CNF.of([Clause.of([
        ColumnConstantPredicate(ColumnRef("T", "x"), Op.GE, 1.0)])]))


class TestExactnessRefusal:
    def test_new_partition_below_eps_is_refused_pre_mutation(self):
        # d_tables({T,S}, {T,S,U}) = 1/3, so eps=0.4 (block-sparse)
        # cannot admit the three-table area without breaking
        # partition-local neighbours.
        inc = IncrementalDBSCAN(QueryDistance(_stats()), eps=0.4,
                                min_pts=2, registry=MetricsRegistry())
        assert inc.backend_name == "sparse"
        inc.add(_joined("T", "S"))
        with pytest.raises(ValueError, match="bound"):
            inc.add(_joined("T", "S", "U"))
        # The refusal must leave the clusterer fully usable.
        assert inc.n_unique == 1
        update = inc.add(_joined("T", "S"))
        assert update.promotions == 1
        assert inc.labels() == [0]

    def test_dense_backend_has_no_exactness_precondition(self):
        inc = IncrementalDBSCAN(QueryDistance(_stats()), eps=0.6,
                                min_pts=1, registry=MetricsRegistry())
        assert inc.backend_name == "dense"
        inc.add(_window("T", 0, 10))
        update = inc.add(_joined("T", "S"))
        assert update.new_point


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
