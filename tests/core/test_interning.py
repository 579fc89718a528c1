"""Access-area interning: canonical pool, dedupe maps, pipeline wiring."""

import pytest

from repro.algebra.cnf import CNF, Clause
from repro.algebra.predicates import (ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.core import (AccessAreaInterner, InternStats, dedupe_areas,
                        expand_labels, process_log)
from repro.core.area import AccessArea
from repro.obs.metrics import MetricsRegistry


def _pred(column, op, value):
    return ColumnConstantPredicate(ColumnRef("T", column), op, value)


def area(*preds, relations=("T",)):
    return AccessArea(tuple(relations),
                      CNF.of([Clause.of([p]) for p in preds]))


class TestInterner:
    def test_first_object_wins(self):
        pool = AccessAreaInterner()
        first = area(_pred("u", Op.GT, 1))
        second = area(_pred("u", Op.GT, 1))
        assert first is not second
        assert pool.intern(first) is first
        assert pool.intern(second) is first
        assert len(pool) == 1
        assert pool.hits == 1

    def test_clause_order_interns_together(self):
        a = _pred("u", Op.GT, 1)
        b = _pred("v", Op.LT, 2)
        pool = AccessAreaInterner()
        forward = area(a, b)
        backward = area(b, a)
        assert pool.intern(forward) is pool.intern(backward)

    def test_literal_spelling_interns_together(self):
        pool = AccessAreaInterner()
        five = area(_pred("u", Op.EQ, 5))
        five_point_zero = area(_pred("u", Op.EQ, 5.0))
        assert pool.intern(five) is pool.intern(five_point_zero)

    def test_distinct_areas_stay_distinct(self):
        pool = AccessAreaInterner()
        one = pool.intern(area(_pred("u", Op.GT, 1)))
        two = pool.intern(area(_pred("u", Op.GT, 2)))
        assert one is not two
        assert len(pool) == 2
        assert pool.hits == 0

    def test_contains_and_areas_order(self):
        pool = AccessAreaInterner()
        first = pool.intern(area(_pred("u", Op.GT, 1)))
        second = pool.intern(area(_pred("u", Op.GT, 2)))
        assert first in pool and second in pool
        assert area(_pred("u", Op.GT, 3)) not in pool
        assert pool.areas() == [first, second]

    def test_stats(self):
        pool = AccessAreaInterner()
        for value in (1, 1, 1, 2):
            pool.intern(area(_pred("u", Op.GT, value)))
        stats = pool.stats()
        assert stats == InternStats(pool_size=2, hits=2)
        assert stats.probes == 4
        assert stats.hit_rate == 0.5
        assert stats.dedup_ratio == 2.0

    def test_empty_stats(self):
        stats = AccessAreaInterner().stats()
        assert stats.hit_rate == 0.0
        assert stats.dedup_ratio == 1.0

    def test_record_metrics(self):
        registry = MetricsRegistry()
        pool = AccessAreaInterner()
        for value in (1, 1, 2, 2):
            pool.intern(area(_pred("u", Op.GT, value)))
        pool.record(registry)
        assert registry.gauge("repro_intern_pool_size").value == 2
        assert registry.counter("repro_intern_hits_total").value == 2
        assert registry.counter("repro_intern_misses_total").value == 2
        assert registry.gauge("repro_intern_dedup_ratio").value == 2.0


class TestDedupeAreas:
    def test_first_occurrence_order_and_maps(self):
        pool = [area(_pred("u", Op.GT, value)) for value in (1, 2, 3)]
        source = [pool[i] for i in [1, 0, 1, 2, 0, 1]]
        unique, weights, inverse = dedupe_areas(source)
        assert unique == [pool[1], pool[0], pool[2]]
        assert weights == [3, 2, 1]
        assert inverse == [0, 1, 0, 2, 1, 0]

    def test_expand_labels_roundtrip(self):
        source = [area(_pred("u", Op.GT, value))
                  for value in (1, 2, 1, 1, 3)]
        unique, weights, inverse = dedupe_areas(source)
        labels = list(range(len(unique)))
        expanded = expand_labels(labels, inverse)
        assert len(expanded) == len(source)
        # Two sources sharing an area share the expanded label.
        assert expanded[0] == expanded[2] == expanded[3]
        assert len(set(expanded)) == len(unique)

    def test_shared_interner_accumulates(self):
        pool = AccessAreaInterner()
        dedupe_areas([area(_pred("u", Op.GT, 1))], pool)
        dedupe_areas([area(_pred("u", Op.GT, 1)),
                      area(_pred("u", Op.GT, 2))], pool)
        assert len(pool) == 2
        assert pool.hits == 1

    def test_empty(self):
        assert dedupe_areas([]) == ([], [], [])
        assert expand_labels([], []) == []


class TestProcessLogInterning:
    STATEMENTS = [
        "SELECT * FROM T WHERE T.u > 1",
        "SELECT * FROM T WHERE T.u > 1",
        "SELECT * FROM T WHERE T.u > 2",
        "SELECT v FROM T WHERE T.u > 1",  # projection-invariant area
    ]

    def test_repeats_share_one_object(self, extractor):
        report = process_log(self.STATEMENTS, extractor)
        areas = report.areas()
        assert areas[0] is areas[1] is areas[3]
        assert areas[0] is not areas[2]
        stats = report.intern_stats
        assert stats.pool_size == 2
        assert stats.hits == 2

    def test_unique_areas_collapse(self, extractor):
        report = process_log(self.STATEMENTS, extractor)
        unique, weights, inverse = report.unique_areas()
        assert len(unique) == 2
        assert weights == [3, 1]
        assert inverse == [0, 0, 1, 0]

    def test_unique_areas_without_interning(self, extractor):
        interned = process_log(self.STATEMENTS, extractor)
        # One extraction per statement shares no objects between repeats.
        plain = [extractor.extract(sql).area for sql in self.STATEMENTS]
        assert plain[0] is not plain[1]
        assert interned.unique_areas()[1:] == dedupe_areas(plain)[1:]

    def test_shared_pool_across_logs(self, extractor):
        pool = AccessAreaInterner()
        process_log(self.STATEMENTS[:2], extractor, interner=pool)
        process_log(self.STATEMENTS[2:], extractor, interner=pool)
        assert len(pool) == 2
        assert pool.hits == 2

    def test_metrics_recorded(self, extractor):
        registry = MetricsRegistry()
        process_log(self.STATEMENTS, extractor, registry=registry)
        assert registry.gauge("repro_intern_pool_size").value == 2
        assert registry.gauge("repro_intern_dedup_ratio").value \
            == pytest.approx(2.0)
