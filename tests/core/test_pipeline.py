"""Batch log processing: extraction rate, failure taxonomy, timings."""

import math

from repro.core import AccessAreaExtractor, process_log
from repro.core.extractor import StageTimings
from repro.core.pipeline import StageTimingSummary


class TestProcessLog:
    def test_mixed_log(self, schema):
        statements = [
            "SELECT * FROM T WHERE u > 1",
            "SELECT * FROM S WHERE v BETWEEN 1 AND 2",
            "CREATE TABLE x (a int)",
            "SELECT FROM WHERE",
            "SELECT ? FROM T",
            "DECLARE @x int",
        ]
        report = process_log(statements, AccessAreaExtractor(schema))
        assert report.total == 6
        assert report.extraction_count == 2
        assert report.unsupported_statements == 2
        assert report.parse_errors == 1
        assert report.lex_errors == 1
        assert abs(report.extraction_rate - 2 / 6) < 1e-12

    def test_users_carried_through(self, schema):
        report = process_log(
            [("SELECT * FROM T", "alice"), ("SELECT * FROM S", "bob")],
            AccessAreaExtractor(schema))
        assert [e.user for e in report.extracted] == ["alice", "bob"]

    def test_indices_point_into_log(self, schema):
        report = process_log(
            ["CREATE TABLE x (a int)", "SELECT * FROM T"],
            AccessAreaExtractor(schema))
        assert report.extracted[0].index == 1

    def test_failures_recorded(self, schema):
        report = process_log(["SELCT 1"], AccessAreaExtractor(schema))
        index, kind, message = report.failures[0]
        assert index == 0 and kind == "parse" and message

    def test_counts_past_the_float_range_are_tallied(self, schema):
        # TOP and LIMIT counts float() reads as infinite are parse
        # errors, tallied like any other.
        statements = ["SELECT TOP 1e400 u FROM T",
                      "SELECT u FROM T LIMIT 1e999",
                      "SELECT TOP 5 u FROM T WHERE u > 1"]
        report = process_log(statements, AccessAreaExtractor(schema))
        assert report.total == 3
        assert report.parse_errors == 2
        assert [(index, kind) for index, kind, _ in report.failures] == \
            [(0, "parse"), (1, "parse")]
        assert [item.index for item in report.extracted] == [2]

    def test_failures_can_be_dropped(self, schema):
        report = process_log(["SELCT 1"], AccessAreaExtractor(schema),
                             keep_failures=False)
        assert report.parse_errors == 1 and not report.failures

    def test_default_extractor(self):
        report = process_log(["SELECT * FROM T WHERE T.u > 1"])
        assert report.extraction_count == 1

    def test_areas_accessor(self, schema):
        report = process_log(["SELECT * FROM T WHERE u > 1"],
                             AccessAreaExtractor(schema))
        assert len(report.areas()) == 1

    def test_constants_off_the_number_line_are_tallied(self, schema):
        # An infinity that starts a ray, a point at an infinity and an
        # integer beyond the float range cannot become intervals: a
        # typed refusal, tallied with the unsupported statements, never
        # raised.
        statements = [
            "SELECT * FROM T WHERE u > 1e400",
            "SELECT * FROM T WHERE u < -1e400",
            "SELECT * FROM T WHERE u = " + "9" * 400,
            "SELECT u, COUNT(*) FROM T WHERE u >= 1e400 GROUP BY u "
            "HAVING MAX(v) > 3",
            "SELECT * FROM T WHERE u = 1e400",
            "SELECT * FROM T WHERE u < 1e400 AND v > -1e400",
        ]
        report = process_log(statements, AccessAreaExtractor(schema))
        assert report.total == 6
        assert report.unsupported_statements == 5
        assert [kind for _index, kind, _message in report.failures] \
            == ["unsupported"] * 5
        assert all("number line" in message
                   for _index, _kind, message in report.failures)
        # Rays towards an infinity still place.
        assert [item.index for item in report.extracted] == [5]


class TestTimings:
    def test_stage_timings_collected(self, schema):
        report = process_log(
            ["SELECT * FROM T WHERE u > 1"] * 5,
            AccessAreaExtractor(schema))
        for stage in ("parse", "extract", "cnf", "consolidate"):
            summary = report.stage_timings[stage]
            assert summary.count == 5
            assert summary.total >= 0
            assert summary.minimum <= summary.maximum

    def test_timing_summary_mean(self, schema):
        report = process_log(["SELECT * FROM T"] * 3,
                             AccessAreaExtractor(schema))
        parse = report.stage_timings["parse"]
        assert abs(parse.mean - parse.total / 3) < 1e-12

    def test_stage_timings_total_property(self):
        t = StageTimings(1.0, 2.0, 3.0, 4.0)
        assert t.total == 10.0

    def test_empty_summary_reports_finite_minimum(self):
        """Regression: an empty summary once leaked ``minimum == inf``
        into exported reports; it must read 0.0."""
        summary = StageTimingSummary()
        assert summary.minimum == 0.0
        assert math.isfinite(summary.minimum)
        assert summary.mean == 0.0

    def test_empty_log_timings_are_finite(self, schema):
        report = process_log([], AccessAreaExtractor(schema))
        for summary in report.stage_timings.values():
            assert summary.minimum == 0.0

    def test_minimum_tracks_first_and_smallest_value(self):
        summary = StageTimingSummary()
        summary.add(0.5)
        assert summary.minimum == 0.5
        summary.add(0.2)
        summary.add(0.9)
        assert summary.minimum == 0.2
        assert summary.maximum == 0.9
        assert summary.count == 3


class TestTimingQuantiles:
    def test_quantiles_on_known_values(self):
        summary = StageTimingSummary()
        for value in range(1, 101):  # 1..100 ms
            summary.add(value / 1000)
        assert summary.p50 == 50.5 / 1000
        assert abs(summary.p95 - 95.05 / 1000) < 1e-12
        assert abs(summary.p99 - 99.01 / 1000) < 1e-12
        assert summary.quantile(0.0) == summary.minimum
        assert summary.quantile(1.0) == summary.maximum

    def test_empty_summary_quantiles_are_zero(self):
        summary = StageTimingSummary()
        assert summary.p50 == 0.0
        assert summary.p95 == 0.0
        assert summary.p99 == 0.0

    def test_quantiles_bounded_by_min_max(self, schema):
        report = process_log(["SELECT * FROM T WHERE u > 1"] * 7,
                             AccessAreaExtractor(schema))
        for summary in report.stage_timings.values():
            assert summary.minimum <= summary.p50 <= summary.maximum
            assert summary.p50 <= summary.p95 <= summary.p99
            assert summary.p99 <= summary.maximum

    def test_single_value_quantiles_collapse(self):
        summary = StageTimingSummary()
        summary.add(0.25)
        assert summary.p50 == summary.p95 == summary.p99 == 0.25
