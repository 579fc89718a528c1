"""Temporal interest drift ("trending research directions")."""

import math

import pytest

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.analysis import TrendKind, mine_drift, split_by_time
from repro.clustering import partitioned_dbscan
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

REF = ColumnRef("T", "x")


def _stats():
    schema = Schema("drift")
    schema.add(Relation("T", (
        Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(
        schema, {("T", "x"): Interval(0.0, 100.0)})


def window_area(lo, hi):
    return AccessArea(("T",), CNF.of([
        Clause.of([ColumnConstantPredicate(REF, Op.GE, lo)]),
        Clause.of([ColumnConstantPredicate(REF, Op.LE, hi)]),
    ]))


def family(lo, hi, n, jitter=0.05):
    return [window_area(lo + i * jitter, hi + i * jitter)
            for i in range(n)]


class TestMineDrift:
    def test_emerged_interest(self):
        w0 = family(10, 20, 10)
        w1 = family(10, 20, 10) + family(70, 80, 10)
        report = mine_drift([w0, w1], _stats(), eps=0.15, min_pts=4)
        emerged = report.emerged()
        assert len(emerged) == 1
        assert emerged[0].current.aggregated.bounds[0].interval.lo >= 60

    def test_vanished_interest(self):
        w0 = family(10, 20, 10) + family(70, 80, 10)
        w1 = family(10, 20, 10)
        report = mine_drift([w0, w1], _stats(), eps=0.15, min_pts=4)
        assert len(report.vanished()) == 1

    def test_persisted_with_growth(self):
        w0 = family(10, 20, 8)
        w1 = family(10, 20, 16)
        report = mine_drift([w0, w1], _stats(), eps=0.15, min_pts=4)
        persisted = report.persisted()
        assert len(persisted) == 1
        assert persisted[0].growth == pytest.approx(2.0)

    def test_three_windows(self):
        w0 = family(10, 20, 10)
        w1 = family(10, 20, 10) + family(70, 80, 10)
        w2 = family(70, 80, 10)
        report = mine_drift([w0, w1, w2], _stats(), eps=0.15, min_pts=4)
        kinds = [(t.window, t.kind) for t in report.trends]
        assert (1, TrendKind.EMERGED) in kinds
        assert (2, TrendKind.VANISHED) in kinds
        assert (2, TrendKind.PERSISTED) in kinds

    def test_describe(self):
        report = mine_drift([family(10, 20, 8), family(10, 20, 8)],
                            _stats(), eps=0.15, min_pts=4)
        text = report.describe()
        assert "windows analysed : 2" in text
        assert "persisted" in text


def _per_pair_medoid(members, distance, sample_cap=20):
    """The per-pair reference: unweighted cost over the first
    ``sample_cap`` members, first minimum wins."""
    candidates = members[:sample_cap]
    best, best_cost = candidates[0], float("inf")
    for candidate in candidates:
        cost = sum(distance(candidate, other) for other in candidates)
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best


class TestMedoids:
    def test_medoids_equal_per_pair_loop(self):
        """Counts of 1 through the kernel-backed medoid: the same
        members as the per-pair loop, past the 20-candidate cap, on
        ties, and where a NaN constant sends a cluster to the metric."""
        nan_clause = Clause.of([ColumnConstantPredicate(REF, Op.EQ,
                                                        math.nan)])
        odd = [AccessArea(area.relations,
                          CNF.of(list(area.cnf.clauses) + [nan_clause]))
               for area in family(40, 50, 6)]
        windows = [family(10, 20, 25) + family(70, 80, 8) + odd,
                   family(10, 20, 6) + family(70, 80, 30, jitter=0.0)]
        stats = _stats()
        report = mine_drift(windows, stats, eps=0.15, min_pts=4)
        distance = QueryDistance(stats, resolution=0.05)
        for interests, areas in zip(report.windows, windows):
            clustering = partitioned_dbscan(areas, distance, 0.15, 4)
            want = sorted(
                ((len(indices),
                  _per_pair_medoid([areas[i] for i in indices], distance))
                 for indices in clustering.clusters().values()),
                key=lambda pair: pair[0], reverse=True)
            assert len(want) == len(interests) >= 2
            assert [id(interest.medoid) for interest in interests] == \
                [id(medoid) for _, medoid in want]
        assert any(interest.medoid in odd
                   for interest in report.windows[0])


class TestSplitByTime:
    def test_equal_windows(self):
        pairs = [(window_area(0, 1), float(t)) for t in range(100)]
        windows = split_by_time(pairs, 4)
        assert [len(w) for w in windows] == [25, 25, 25, 25]

    def test_last_window_inclusive(self):
        pairs = [(window_area(0, 1), 0.0), (window_area(0, 1), 10.0)]
        windows = split_by_time(pairs, 2)
        assert len(windows[0]) == 1 and len(windows[1]) == 1

    def test_empty_input(self):
        assert split_by_time([], 3) == [[], [], []]


class TestEndToEndDrift:
    def test_generated_workload_drift(self):
        """Families confined to eras surface as emerged/vanished trends."""
        from repro.core import AccessAreaExtractor, process_log
        from repro.schema import skyserver_schema
        from repro.workload import WorkloadConfig, generate_workload

        schema = skyserver_schema()
        workload = generate_workload(WorkloadConfig(
            n_queries=1200, seed=5,
            emerging_families=(9,), fading_families=(10,)))
        extractor = AccessAreaExtractor(schema)
        report = process_log(workload.log.statements(), extractor)
        stats = StatisticsCatalog.from_exact_content(
            schema, __import__("repro.schema.skyserver",
                               fromlist=["CONTENT_BOUNDS"]).CONTENT_BOUNDS)
        for extracted in report.extracted:
            stats.observe_cnf(extracted.area.cnf)

        pairs = [
            (item.area, workload.log[item.index].timestamp)
            for item in report.extracted
        ]
        windows = split_by_time(pairs, 2)
        drift = mine_drift(windows, stats, eps=0.12, min_pts=5)

        emerged_rel = {
            r for t in drift.emerged()
            for r in t.current.aggregated.relations
        }
        vanished_rel = {
            r for t in drift.vanished()
            for r in t.previous.aggregated.relations
        }
        # Family 9 = SpecObjAll star/plate/mjd; family 10 = DBObjects.
        assert "SpecObjAll" in emerged_rel
        assert "DBObjects" in vanished_rel
