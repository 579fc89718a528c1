"""Streaming extraction and novelty detection (Section 4 extension)."""

import pytest

from repro.core import AccessAreaExtractor
from repro.core.stream import EventKind, StreamMonitor
from repro.schema import (CONTENT_BOUNDS, StatisticsCatalog,
                          skyserver_schema)


@pytest.fixture()
def monitor():
    schema = skyserver_schema()
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    return StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                         warmup=0)


def kinds(monitor):
    return [event.kind for event in monitor.events]


class TestIngestion:
    def test_counts(self, monitor):
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        monitor.process("SELCT broken")
        assert monitor.state.processed == 2
        assert monitor.state.extracted == 1
        assert monitor.state.failures == 1
        assert monitor.state.extraction_rate == 0.5

    def test_process_many_returns_areas(self, monitor):
        areas = monitor.process_many([
            "SELECT * FROM Photoz", "CREATE TABLE x (a int)",
            "SELECT * FROM SpecObjAll"])
        assert len(areas) == 2

    def test_failure_returns_none(self, monitor):
        assert monitor.process("DECLARE @x int") is None


class TestNoveltyEvents:
    def test_new_relation_once(self, monitor):
        monitor.process("SELECT * FROM Photoz")
        monitor.process("SELECT * FROM Photoz")
        relation_events = [e for e in monitor.events
                           if e.kind is EventKind.NEW_RELATION]
        assert len(relation_events) == 1

    def test_new_column(self, monitor):
        monitor.process("SELECT * FROM Photoz")
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert EventKind.NEW_COLUMN in kinds(monitor)

    def test_new_relation_combination(self, monitor):
        monitor.process("SELECT * FROM sppLines")
        monitor.process("SELECT * FROM sppParams")
        monitor.process(
            "SELECT * FROM sppLines l JOIN sppParams p "
            "ON l.specobjid = p.specobjid")
        assert EventKind.NEW_RELATION_SET in kinds(monitor)

    def test_new_query_feature(self, monitor):
        monitor.process("SELECT * FROM SpecObjAll WHERE plate > 300")
        assert EventKind.NEW_QUERY_FEATURE not in kinds(monitor)
        monitor.process("SELECT plate, COUNT(*) FROM SpecObjAll "
                        "GROUP BY plate HAVING COUNT(*) > 5")
        features = {e.detail for e in monitor.events
                    if e.kind is EventKind.NEW_QUERY_FEATURE}
        assert any("group-by" in f for f in features)
        assert any("having" in f for f in features)

    def test_feature_only_fires_once(self, monitor):
        for _ in range(3):
            monitor.process("SELECT * FROM Photoz WHERE z "
                            "BETWEEN 0 AND 0.1")
        between_events = [
            e for e in monitor.events
            if e.kind is EventKind.NEW_QUERY_FEATURE
            and "between" in e.detail
        ]
        assert len(between_events) == 1

    def test_out_of_range_constant(self, monitor):
        # zooSpec access(dec) is the [-11, 70] stripe: 0 is inside.
        monitor.process("SELECT * FROM zooSpec WHERE dec >= 0")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(monitor)
        monitor.process("SELECT * FROM zooSpec WHERE dec >= -100")
        events = [e for e in monitor.events
                  if e.kind is EventKind.OUT_OF_RANGE_CONSTANT]
        assert events and "-100" in events[0].detail

    def test_warmup_suppresses_events(self):
        schema = skyserver_schema()
        quiet = StreamMonitor(AccessAreaExtractor(schema), warmup=10)
        for _ in range(5):
            quiet.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert not quiet.events

    def test_callback_invoked(self):
        schema = skyserver_schema()
        seen = []
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                on_event=seen.append)
        monitor.process("SELECT * FROM Photoz")
        assert seen and seen[0].kind is EventKind.NEW_RELATION


class TestFailureBurst:
    def test_burst_detected(self):
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=10,
                                failure_burst_threshold=0.3)
        for _ in range(10):
            monitor.process("SELECT * FROM Photoz")
        for _ in range(10):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST in kinds(monitor)

    def test_burst_fires_once_per_episode(self):
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=10,
                                failure_burst_threshold=0.3)
        for _ in range(30):
            monitor.process("SELCT broken")
        bursts = [e for e in monitor.events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 1

    def test_no_burst_on_sporadic_failures(self):
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=10,
                                failure_burst_threshold=0.5)
        for i in range(40):
            if i % 10 == 0:
                monitor.process("SELCT broken")
            else:
                monitor.process("SELECT * FROM Photoz")
        assert EventKind.FAILURE_BURST not in kinds(monitor)

    def test_alternating_burst_fires_once(self):
        # An alternating fail/success stream keeps the window at a 50%
        # failure rate: one long burst episode.  The old latch re-armed
        # on every successful parse and fired once per failure.
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=10,
                                failure_burst_threshold=0.3)
        for _ in range(30):
            monitor.process("SELCT broken")
            monitor.process("SELECT * FROM Photoz")
        bursts = [e for e in monitor.events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 1

    def test_latch_rearms_after_recovery(self):
        # Burst → full recovery (window rate drops below threshold) →
        # second burst: exactly two notifications, one per episode.
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=10,
                                failure_burst_threshold=0.3)
        for _ in range(15):
            monitor.process("SELCT broken")
        for _ in range(20):  # flush the window clean
            monitor.process("SELECT * FROM Photoz")
        for _ in range(15):
            monitor.process("SELCT broken")
        bursts = [e for e in monitor.events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 2


class TestSummary:
    def test_summary_mentions_counts(self, monitor):
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        text = monitor.summary()
        assert "statements processed : 1" in text
        assert "events emitted" in text


class TestShortStreamBurst:
    def test_short_all_failure_stream_alarms(self):
        # A stream that dies before failure_window statements must
        # still notify: the burst check fires once half the window has
        # been observed.
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=50,
                                failure_burst_threshold=0.2)
        for _ in range(25):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST in kinds(monitor)

    def test_below_half_window_stays_quiet(self):
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                failure_window=50,
                                failure_burst_threshold=0.2)
        for _ in range(24):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST not in kinds(monitor)


class TestWarmupCountsExtractions:
    def test_parse_failures_do_not_burn_warmup(self):
        # 20 junk statements then one real one: with warmup measured
        # against processed statements the junk would exhaust warmup
        # and the real statement's novelties would fire mid-learning.
        schema = skyserver_schema()
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=3)
        for _ in range(20):
            monitor.process("SELCT broken !!!")
        monitor.process("SELECT * FROM Photoz")
        novelty = [e for e in monitor.events
                   if e.kind is EventKind.NEW_RELATION]
        assert not novelty
        # After three *extractions* the monitor is warmed up.
        monitor.process("SELECT * FROM SpecObjAll")
        monitor.process("SELECT * FROM zooSpec")
        monitor.process("SELECT * FROM sppLines")
        novelty = [e for e in monitor.events
                   if e.kind is EventKind.NEW_RELATION]
        assert [e.detail for e in novelty] \
            == ["first query touching relation sppLines"]


class TestOutOfRangeSlackFloor:
    def _point_access_monitor(self):
        # A sampled catalog of a constant column yields a width-0
        # access interval (e.g. every sampled z was 0.2): the relative
        # margin alone would then flag *every* different constant.
        from repro.algebra.intervals import Interval
        from repro.schema.statistics import NumericColumnStats
        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        stats._numeric[("photoz", "z")] = NumericColumnStats(
            access=Interval(0.2, 0.2), content=Interval(0.2, 0.2))
        return StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                             warmup=0)

    def test_point_access_interval_uses_domain_floor(self):
        monitor = self._point_access_monitor()
        # z's declared domain is [-1, 10]: with the domain-derived
        # floor, a nearby constant is routine widening...
        monitor.process("SELECT * FROM Photoz WHERE z < 0.21")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(monitor)

    def test_domain_floor_still_catches_far_constants(self):
        monitor = self._point_access_monitor()
        monitor.process("SELECT * FROM Photoz WHERE z < 5.0")
        events = [e for e in monitor.events
                  if e.kind is EventKind.OUT_OF_RANGE_CONSTANT]
        assert events and "5.0" in events[0].detail

    def test_unknown_column_fallback_cannot_overflow(self):
        # An unresolvable column falls back to Interval(-1.7e308,
        # 1.7e308), whose width overflows to inf.  The margin
        # arithmetic must not propagate that into inf/nan comparisons
        # (or flag anything).
        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        monitor = StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                                warmup=0)
        monitor.process(
            "SELECT * FROM Photoz p JOIN SpecObjAll s "
            "ON p.specobjid = s.specobjid WHERE p.nosuchcol > 1e307")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(monitor)
        assert monitor.state.extracted == 1


class TestIncrementalClustering:
    def _monitor(self, **kwargs):
        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        return StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                             warmup=0, cluster_incrementally=True,
                             **kwargs)

    def test_requires_stats(self):
        schema = skyserver_schema()
        with pytest.raises(ValueError, match="statistics"):
            StreamMonitor(AccessAreaExtractor(schema),
                          cluster_incrementally=True)

    def test_labels_track_extracted_statements(self):
        monitor = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        for i in range(4):
            monitor.process(f"SELECT * FROM Photoz WHERE z < 0.1")
            monitor.process("SELCT broken !!!")
        assert len(monitor.statement_labels) == 4
        assert len(monitor.statement_labels) == len(monitor.areas)
        # The repeated statement interns to one area, which promotes to
        # a core singleton cluster at min_pts=2.
        assert monitor.statement_labels[-1] == 0
        assert monitor.clusterer.n_unique == 1

    def test_cluster_changed_event_on_structure_change(self):
        monitor = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert EventKind.CLUSTER_CHANGED not in kinds(monitor)
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        changed = [e for e in monitor.events
                   if e.kind is EventKind.CLUSTER_CHANGED]
        assert len(changed) == 1 and "promotion" in changed[0].detail
        # A third repeat is structurally quiet.
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        changed = [e for e in monitor.events
                   if e.kind is EventKind.CLUSTER_CHANGED]
        assert len(changed) == 1

    def test_stream_labels_match_batch_dbscan(self):
        import copy

        from repro.clustering import DBSCAN
        from repro.distance import QueryDistance

        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        frozen = copy.deepcopy(stats)
        monitor = StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                                warmup=0, cluster_incrementally=True,
                                cluster_eps=0.08, cluster_min_pts=2)
        for i in range(24):
            z = 0.10 + 0.001 * (i % 4)
            monitor.process(f"SELECT * FROM Photoz WHERE z < {z}")
        for i in range(8):
            monitor.process(
                f"SELECT * FROM SpecObjAll WHERE plate > {300 + i % 2}")
        clusterer = monitor.clusterer
        # The monitor's catalog kept widening; the clusterer's frozen
        # copy must match a batch run over the enablement-time stats.
        want = DBSCAN(eps=0.08, min_pts=2).fit(
            clusterer.areas(), distance=QueryDistance(frozen),
            weights=clusterer.weights())
        assert clusterer.labels() == list(want.labels)
        assert monitor.clusterer.n_clusters >= 2

    def test_large_eps_labels_every_statement(self):
        # eps=0.6 is at or above the single-table bound 1/2, so the
        # clusterer runs dense and refuses no table set; the block-sparse
        # layout would refuse 22 of these 489 statements at this radius.
        import copy

        from repro.clustering import DBSCAN
        from repro.core.pipeline import expand_labels
        from repro.distance import DistanceMatrix, QueryDistance
        from repro.workload import WorkloadConfig, generate_workload

        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        frozen = copy.deepcopy(stats)
        monitor = StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                                warmup=0, cluster_incrementally=True,
                                cluster_eps=0.6, cluster_min_pts=5)
        workload = generate_workload(WorkloadConfig(n_queries=400, seed=7))
        monitor.process_many(workload.log.statements())
        clusterer = monitor.clusterer
        assert clusterer.backend_name == "dense"
        assert len(monitor.areas) == 489
        assert None not in monitor.statement_labels
        areas = clusterer.areas()
        matrix = DistanceMatrix.compute(areas, QueryDistance(frozen),
                                        cutoff=0.6)
        want = DBSCAN(eps=0.6, min_pts=5).fit(
            areas, matrix=matrix, weights=clusterer.weights())
        assert clusterer.expanded_labels() == expand_labels(
            want.labels, clusterer.inverse())
        assert len(clusterer.inverse()) == 489

    def test_summary_mentions_clustering(self):
        monitor = self._monitor()
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert "clustering" in monitor.summary()
