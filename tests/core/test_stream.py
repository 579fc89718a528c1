"""Streaming extraction and novelty detection (Section 4 extension)."""

import pytest

import repro.core.extractor as extractor_module
from repro.clustering import NOISE
from repro.core import AccessAreaExtractor, stream
from repro.core.stream import EventKind, StreamMonitor
from repro.schema import (CONTENT_BOUNDS, StatisticsCatalog,
                          skyserver_schema)


def watched(schema=None, **kwargs):
    """A monitor over ``schema`` (SkyServer's by default) and the list
    its events go to."""
    events = []
    monitor = StreamMonitor(AccessAreaExtractor(schema or skyserver_schema()),
                            on_event=events.append, **kwargs)
    return monitor, events


@pytest.fixture()
def events():
    return []


@pytest.fixture()
def monitor(events):
    schema = skyserver_schema()
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    return StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                         on_event=events.append, warmup=0)


def kinds(events):
    return [event.kind for event in events]


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
    def test_new_relation_once(self, monitor, events):
        monitor.process("SELECT * FROM Photoz")
        monitor.process("SELECT * FROM Photoz")
        relation_events = [e for e in events
                           if e.kind is EventKind.NEW_RELATION]
        assert len(relation_events) == 1

    def test_new_column(self, monitor, events):
        monitor.process("SELECT * FROM Photoz")
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert EventKind.NEW_COLUMN in kinds(events)

    def test_new_relation_combination(self, monitor, events):
        monitor.process("SELECT * FROM sppLines")
        monitor.process("SELECT * FROM sppParams")
        monitor.process(
            "SELECT * FROM sppLines l JOIN sppParams p "
            "ON l.specobjid = p.specobjid")
        assert EventKind.NEW_RELATION_SET in kinds(events)

    def test_new_query_feature(self, monitor, events):
        monitor.process("SELECT * FROM SpecObjAll WHERE plate > 300")
        assert EventKind.NEW_QUERY_FEATURE not in kinds(events)
        monitor.process("SELECT plate, COUNT(*) FROM SpecObjAll "
                        "GROUP BY plate HAVING COUNT(*) > 5")
        features = {e.detail for e in events
                    if e.kind is EventKind.NEW_QUERY_FEATURE}
        assert any("group-by" in f for f in features)
        assert any("having" in f for f in features)

    def test_feature_only_fires_once(self, monitor, events):
        for _ in range(3):
            monitor.process("SELECT * FROM Photoz WHERE z "
                            "BETWEEN 0 AND 0.1")
        between_events = [
            e for e in events
            if e.kind is EventKind.NEW_QUERY_FEATURE
            and "between" in e.detail
        ]
        assert len(between_events) == 1

    def test_out_of_range_constant(self, monitor, events):
        # zooSpec access(dec) is the [-11, 70] stripe: 0 is inside.
        monitor.process("SELECT * FROM zooSpec WHERE dec >= 0")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(events)
        monitor.process("SELECT * FROM zooSpec WHERE dec >= -100")
        flagged = [e for e in events
                   if e.kind is EventKind.OUT_OF_RANGE_CONSTANT]
        assert flagged and "-100" in flagged[0].detail

    def test_warmup_suppresses_events(self):
        quiet, events = watched(warmup=10)
        for _ in range(5):
            quiet.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert not events

    def test_callback_invoked(self):
        schema = skyserver_schema()
        seen = []
        monitor = StreamMonitor(AccessAreaExtractor(schema), warmup=0,
                                on_event=seen.append)
        monitor.process("SELECT * FROM Photoz")
        assert seen and seen[0].kind is EventKind.NEW_RELATION


class TestFailureBurst:
    def test_burst_detected(self):
        monitor, events = watched(warmup=0, failure_window=10,
                                  failure_burst_threshold=0.3)
        for _ in range(10):
            monitor.process("SELECT * FROM Photoz")
        for _ in range(10):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST in kinds(events)

    def test_burst_fires_once_per_episode(self):
        monitor, events = watched(warmup=0, failure_window=10,
                                  failure_burst_threshold=0.3)
        for _ in range(30):
            monitor.process("SELCT broken")
        bursts = [e for e in events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 1

    def test_no_burst_on_sporadic_failures(self):
        monitor, events = watched(warmup=0, failure_window=10,
                                  failure_burst_threshold=0.5)
        for i in range(40):
            if i % 10 == 0:
                monitor.process("SELCT broken")
            else:
                monitor.process("SELECT * FROM Photoz")
        assert EventKind.FAILURE_BURST not in kinds(events)

    def test_alternating_burst_fires_once(self):
        # An alternating fail/success stream keeps the window at a 50%
        # failure rate: one long burst episode.  The old latch re-armed
        # on every successful parse and fired once per failure.
        monitor, events = watched(warmup=0, failure_window=10,
                                  failure_burst_threshold=0.3)
        for _ in range(30):
            monitor.process("SELCT broken")
            monitor.process("SELECT * FROM Photoz")
        bursts = [e for e in events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 1

    def test_latch_rearms_after_recovery(self):
        # Burst → full recovery (window rate drops below threshold) →
        # second burst: exactly two notifications, one per episode.
        monitor, events = watched(warmup=0, failure_window=10,
                                  failure_burst_threshold=0.3)
        for _ in range(15):
            monitor.process("SELCT broken")
        for _ in range(20):  # flush the window clean
            monitor.process("SELECT * FROM Photoz")
        for _ in range(15):
            monitor.process("SELCT broken")
        bursts = [e for e in events
                  if e.kind is EventKind.FAILURE_BURST]
        assert len(bursts) == 2


class TestTextMemo:
    """A text seen before skips extraction, novelty detection and
    learning; every tally and clustering still run."""

    @pytest.fixture()
    def extractions(self, monkeypatch):
        """The texts the monitor's extractor was handed.  Counted at
        ``extract``, not at the parser: a new text of a statement shape
        the extractor holds is extracted without a parse."""
        calls = []
        extract = extractor_module.AccessAreaExtractor.extract

        def counting(extractor, sql):
            calls.append(sql)
            return extract(extractor, sql)

        monkeypatch.setattr(extractor_module.AccessAreaExtractor, "extract",
                            counting)
        return calls

    def test_repeat_skips_extraction_and_learning(self, extractions,
                                                  monkeypatch):
        calls = {"_learn": 0, "_notify_novelties": 0}
        for name in calls:
            original = getattr(StreamMonitor, name)

            def counting(monitor, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(monitor, *args)

            monkeypatch.setattr(StreamMonitor, name, counting)
        schema = skyserver_schema()
        monitor = StreamMonitor(
            AccessAreaExtractor(schema),
            stats=StatisticsCatalog.from_exact_content(schema,
                                                       CONTENT_BOUNDS),
            warmup=0, cluster_incrementally=True, cluster_eps=0.12)
        sql = "SELECT ra, dec FROM PhotoObj WHERE ra BETWEEN 10 AND 20"
        first = monitor.process(sql)
        assert (len(extractions), calls["_learn"],
                calls["_notify_novelties"]) == (1, 1, 1)
        assert monitor.process(sql) is first
        assert (len(extractions), calls["_learn"],
                calls["_notify_novelties"]) == (1, 1, 1)
        assert monitor.state.extracted == monitor.clusterer.arrivals == 2
        assert monitor.last_label == NOISE   # the hit was labelled
        # Another spelling of the statement is extracted once and comes back
        # as the clusterer's pooled area.
        assert monitor.process(sql.replace("SELECT", "select") + " ") \
            is first is monitor.clusterer.area(0)
        assert len(extractions) == 2
        assert monitor.clusterer.n_unique == 1

    def test_held_refusal_pins_no_frames(self, extractions, monitor):
        for _ in range(3):
            assert monitor.process("SELCT broken") is None
        assert extractions == ["SELCT broken"]
        assert (monitor.state.processed, monitor.state.failures) == (3, 3)
        assert monitor.last_error.__traceback__ is None

    def test_least_recently_used_text_is_evicted_first(
            self, extractions, monitor, monkeypatch):
        a, b, c = (f"SELECT * FROM Photoz WHERE z < 0.{v}"
                   for v in (1, 2, 3))
        monkeypatch.setattr(stream, "MEMO_CHARS", len(a) + len(b))
        for sql in (a, b, a, c):   # a is hit before c evicts
            monitor.process(sql)
        assert extractions == [a, b, c]
        monitor.process(a)
        assert extractions == [a, b, c]
        monitor.process(b)
        assert extractions == [a, b, c, b]

    def test_text_longer_than_the_budget_is_never_held(
            self, extractions, monitor, monkeypatch):
        short = "SELECT * FROM Photoz"
        long = "SELECT * FROM Photoz WHERE z < 0.1"
        monkeypatch.setattr(stream, "MEMO_CHARS", len(long) - 1)
        for sql in (short, long, long, short):
            monitor.process(sql)
        assert extractions == [short, long, long]


class TestSummary:
    def test_summary_mentions_counts(self, monitor, events):
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        text = monitor.summary()
        assert "statements processed : 1" in text
        assert f"events emitted       : {len(events)}" in text
        assert "  new-relation          : 1" in text


class TestShortStreamBurst:
    def test_short_all_failure_stream_alarms(self):
        # A stream that dies before failure_window statements must
        # still notify: the burst check fires once half the window has
        # been observed.
        monitor, events = watched(warmup=0, failure_window=50,
                                  failure_burst_threshold=0.2)
        for _ in range(25):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST in kinds(events)

    def test_below_half_window_stays_quiet(self):
        monitor, events = watched(warmup=0, failure_window=50,
                                  failure_burst_threshold=0.2)
        for _ in range(24):
            monitor.process("SELCT broken !!!")
        assert EventKind.FAILURE_BURST not in kinds(events)


class TestWarmupCountsExtractions:
    def test_parse_failures_do_not_burn_warmup(self):
        # 20 junk statements then one real one: with warmup measured
        # against processed statements the junk would exhaust warmup
        # and the real statement's novelties would fire mid-learning.
        monitor, events = watched(warmup=3)
        for _ in range(20):
            monitor.process("SELCT broken !!!")
        monitor.process("SELECT * FROM Photoz")
        novelty = [e for e in events
                   if e.kind is EventKind.NEW_RELATION]
        assert not novelty
        # After three *extractions* the monitor is warmed up.
        monitor.process("SELECT * FROM SpecObjAll")
        monitor.process("SELECT * FROM zooSpec")
        monitor.process("SELECT * FROM sppLines")
        novelty = [e for e in events
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
        return watched(schema, stats=stats, warmup=0)

    def test_point_access_interval_uses_domain_floor(self):
        monitor, events = self._point_access_monitor()
        # z's declared domain is [-1, 10]: with the domain-derived
        # floor, a nearby constant is routine widening...
        monitor.process("SELECT * FROM Photoz WHERE z < 0.21")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(events)

    def test_domain_floor_still_catches_far_constants(self):
        monitor, events = self._point_access_monitor()
        monitor.process("SELECT * FROM Photoz WHERE z < 5.0")
        flagged = [e for e in events
                   if e.kind is EventKind.OUT_OF_RANGE_CONSTANT]
        assert flagged and "5.0" in flagged[0].detail

    def test_unknown_column_fallback_cannot_overflow(self):
        # An unresolvable column falls back to Interval(-1.7e308,
        # 1.7e308), whose width overflows to inf.  The margin
        # arithmetic must not propagate that into inf/nan comparisons
        # (or flag anything).
        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        monitor, events = watched(schema, stats=stats, warmup=0)
        monitor.process(
            "SELECT * FROM Photoz p JOIN SpecObjAll s "
            "ON p.specobjid = s.specobjid WHERE p.nosuchcol > 1e307")
        assert EventKind.OUT_OF_RANGE_CONSTANT not in kinds(events)
        assert monitor.state.extracted == 1


class TestIncrementalClustering:
    def _monitor(self, **kwargs):
        schema = skyserver_schema()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        return watched(schema, stats=stats, warmup=0,
                       cluster_incrementally=True, **kwargs)

    def test_requires_stats(self):
        schema = skyserver_schema()
        with pytest.raises(ValueError, match="statistics"):
            StreamMonitor(AccessAreaExtractor(schema),
                          cluster_incrementally=True)

    def test_labels_track_extracted_statements(self):
        monitor, _ = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        labels = []
        for i in range(4):
            monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
            labels.append(monitor.last_label)
            monitor.process("SELCT broken !!!")
            labels.append(monitor.last_label)
        # A failed statement has no label.  The repeated statement
        # interns to one area, which promotes to a core singleton
        # cluster at min_pts=2.
        assert labels == [NOISE, None, 0, None, 0, None, 0, None]
        assert monitor.clusterer.n_unique == 1

    def test_cluster_changed_event_on_structure_change(self):
        monitor, events = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert EventKind.CLUSTER_CHANGED not in kinds(events)
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        changed = [e for e in events
                   if e.kind is EventKind.CLUSTER_CHANGED]
        assert len(changed) == 1 and "promotion" in changed[0].detail
        # A third repeat is structurally quiet.
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        changed = [e for e in events
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

    def test_fault_after_insert_propagates(self, monkeypatch):
        # A ValueError out of label repair fires after the insert has
        # changed the clusterer, so the monitor never answers it with a
        # label: it propagates.
        from repro.clustering.incremental import IncrementalDBSCAN

        def fault(self, candidates, update):
            raise ValueError("injected repair fault")

        sql = "SELECT * FROM Photoz WHERE z < 0.1"
        area = AccessAreaExtractor(skyserver_schema()).extract(sql).area
        monkeypatch.setattr(IncrementalDBSCAN, "_promote_eligible", fault)
        monitor, _ = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        with pytest.raises(ValueError, match="injected repair fault"):
            monitor.process(sql)
        assert monitor.clusterer.n_unique == 1
        assert monitor.last_label is None
        replayed, _ = self._monitor(cluster_eps=0.1, cluster_min_pts=2)
        with pytest.raises(ValueError, match="injected repair fault"):
            replayed.replay(area)
        assert replayed.last_label is None

    def test_large_eps_labels_every_statement(self, monkeypatch):
        # eps=0.6 is at or above the bound 1/2 between one- and
        # two-table sets, so neighbourhoods reach across partitions.
        import copy

        from repro.clustering import DBSCAN, IncrementalDBSCAN
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
        indices = []
        add = IncrementalDBSCAN.add

        def recording(clusterer, area, count=1):
            update = add(clusterer, area, count)
            indices.append(update.index)
            return update

        monkeypatch.setattr(IncrementalDBSCAN, "add", recording)
        workload = generate_workload(WorkloadConfig(n_queries=400, seed=7))
        monitor.process_many(workload.log.statements())
        clusterer = monitor.clusterer
        # Every extracted statement got a label.
        assert monitor.state.extracted == len(indices) == 489
        areas = clusterer.areas()
        matrix = DistanceMatrix.compute(areas, QueryDistance(frozen))
        want = DBSCAN(eps=0.6, min_pts=5).fit(
            areas, matrix=matrix, weights=clusterer.weights())
        assert expand_labels(clusterer.labels(), indices) == expand_labels(
            want.labels, indices)

    def test_summary_mentions_clustering(self):
        monitor, _ = self._monitor()
        monitor.process("SELECT * FROM Photoz WHERE z < 0.1")
        assert "clustering" in monitor.summary()
