"""Registry, counter/gauge/histogram semantics, quantiles, exporters."""

import json
import math
import random
import time
import zlib

import pytest

from repro.obs.export import (load_json, render_table, to_json,
                              to_prometheus, write_json)
from repro.obs.metrics import (DEFAULT_RESERVOIR_SIZE, Counter, Histogram,
                               MetricsRegistry, NullRegistry, RunningStats,
                               get_registry, set_registry, use_registry)
from repro.obs.trace import NULL_TRACER


class TestRunningStats:
    def test_empty_is_finite_and_symmetric(self):
        stats = RunningStats()
        assert stats.minimum == 0.0
        assert stats.maximum == 0.0
        assert stats.mean == 0.0
        assert math.isfinite(stats.minimum)

    def test_first_value_sets_both_bounds(self):
        stats = RunningStats()
        stats.add(0.5)
        assert stats.minimum == 0.5
        assert stats.maximum == 0.5

    def test_accumulation(self):
        stats = RunningStats()
        for value in (3.0, 1.0, 2.0):
            stats.add(value)
        assert stats.count == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.total == 6.0
        assert stats.mean == 2.0


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestHistogram:
    def test_exact_quantiles_below_reservoir_size(self):
        histogram = Histogram("h")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert histogram.p50 == pytest.approx(50.5)
        assert histogram.p95 == pytest.approx(95.05)
        assert histogram.p99 == pytest.approx(99.01)

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_reservoir_sampling_is_deterministic_and_bounded(self):
        h1 = Histogram("same-name", reservoir_size=64)
        h2 = Histogram("same-name", reservoir_size=64)
        for value in range(10_000):
            h1.observe(value)
            h2.observe(value)
        assert len(h1.reservoir) == 64
        assert h1.reservoir == h2.reservoir  # seeded from the name
        assert h1.count == 10_000
        # The sampled p50 of a uniform ramp stays near the middle.
        assert 2_000 < h1.p50 < 8_000

    def test_sampler_seeded_on_first_overflow_draws_as_if_at_construction(
            self):
        # The sampler is built at the first observation past the
        # reservoir; its draws are those of one seeded with the name
        # when the histogram was built.
        name = "stage_seconds"
        histogram = Histogram(name)
        size = DEFAULT_RESERVOIR_SIZE
        values = [float((7 * i) % 1000) for i in range(3 * size)]
        for value in values:
            histogram.observe(value)
        rng = random.Random(zlib.crc32(name.encode("utf-8")))
        reservoir = values[:size]
        for count, value in enumerate(values[size:], start=size + 1):
            slot = rng.randrange(count)
            if slot < size:
                reservoir[slot] = value
        assert histogram.reservoir == reservoir


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", stage="parse")
        b = registry.counter("repro_x_total", stage="parse")
        c = registry.counter("repro_x_total", stage="cnf")
        assert a is b
        assert a is not c

    def test_instrument_kinds_are_separate_namespaces(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        registry.gauge("repro_x")
        registry.histogram("repro_x")
        snapshot = registry.snapshot()
        assert len(snapshot["counters"]) == 1
        assert len(snapshot["gauges"]) == 1
        assert len(snapshot["histograms"]) == 1

    def test_default_registry_injection(self):
        replacement = MetricsRegistry()
        with use_registry(replacement):
            assert get_registry() is replacement
            get_registry().counter("repro_inside_total").inc()
        assert get_registry() is not replacement
        assert replacement.counter("repro_inside_total").value == 1

    def test_set_registry_returns_previous(self):
        original = get_registry()
        replacement = MetricsRegistry()
        previous = set_registry(replacement)
        try:
            assert previous is original
        finally:
            set_registry(original)


class TestNullRegistry:
    def test_all_instruments_are_noops(self):
        registry = NullRegistry()
        registry.counter("repro_x").inc(5)
        registry.gauge("repro_x").set(5)
        registry.histogram("repro_x").observe(5)
        assert registry.counter("repro_x").value == 0
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []}
        assert not registry.enabled


class TestNoOpOverhead:
    """Disabled instruments must stay within noise of bare code.

    The bound is deliberately loose (20×) — CI boxes are noisy and the
    point is to catch accidental allocation/IO on the null paths, not
    to benchmark them.
    """

    ROUNDS = 20_000

    @staticmethod
    def _time(fn) -> float:
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_null_tracer_spans_are_cheap(self):
        def bare():
            total = 0
            for i in range(self.ROUNDS):
                total += i
            return total

        def traced():
            total = 0
            for i in range(self.ROUNDS):
                with NULL_TRACER.span("step"):
                    total += i
            return total

        baseline = self._time(bare)
        instrumented = self._time(traced)
        assert instrumented < baseline * 20 + 0.05

    def test_null_registry_instruments_are_cheap(self):
        registry = NullRegistry()
        counter = registry.counter("repro_x_total")
        histogram = registry.histogram("repro_seconds")

        def bare():
            total = 0
            for i in range(self.ROUNDS):
                total += i
            return total

        def instrumented_loop():
            total = 0
            for i in range(self.ROUNDS):
                counter.inc()
                histogram.observe(i)
                total += i
            return total

        baseline = self._time(bare)
        instrumented = self._time(instrumented_loop)
        assert instrumented < baseline * 20 + 0.05


class TestPrometheusExport:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_pipeline_statements_total").inc(414)
        registry.counter("repro_pipeline_failures_total",
                         kind="parse").inc(2)
        registry.gauge("repro_clustering_clusters",
                       algorithm="dbscan").set(28)
        histogram = registry.histogram("repro_pipeline_stage_seconds",
                                       stage="cnf")
        for value in range(100):
            histogram.observe(value / 1000)
        return registry

    def test_type_lines_and_samples(self):
        text = to_prometheus(self.build())
        assert "# TYPE repro_pipeline_statements_total counter" in text
        assert "repro_pipeline_statements_total 414" in text
        assert ('repro_pipeline_failures_total{kind="parse"} 2'
                in text)
        assert "# TYPE repro_clustering_clusters gauge" in text
        assert "# TYPE repro_pipeline_stage_seconds histogram" in text
        assert ('repro_pipeline_stage_seconds_quantiles{quantile="0.95",'
                'stage="cnf"}') in text
        assert 'repro_pipeline_stage_seconds_count{stage="cnf"} 100' in text

    def test_help_lines_accompany_every_type(self):
        text = to_prometheus(self.build())
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                name = line.split()[2]
                assert f"# HELP {name} " in text

    def test_bucket_series_cumulative_and_terminated(self):
        text = to_prometheus(self.build())
        buckets = [line for line in text.splitlines()
                   if line.startswith("repro_pipeline_stage_seconds_"
                                      "bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative → monotone
        assert buckets[-1].startswith(
            'repro_pipeline_stage_seconds_bucket{le="+Inf"')
        assert counts[-1] == 100
        # The 0...0.099 ladder: everything fits under le="0.1".
        le_01 = next(line for line in buckets if 'le="0.1"' in line)
        assert le_01.endswith(" 100")

    def test_exemplars_annotate_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_chunk_seconds")
        histogram.observe(0.2, exemplar="span-slow")
        histogram.observe(0.01)
        text = to_prometheus(registry)
        annotated = [line for line in text.splitlines()
                     if '# {span_id="span-slow"}' in line]
        assert len(annotated) == 1
        assert 'le="0.25"' in annotated[0]

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", detail='say "hi"\n').inc()
        text = to_prometheus(registry)
        assert r'detail="say \"hi\"\n"' in text

    def test_every_line_is_sample_or_comment(self):
        for line in to_prometheus(self.build()).strip().splitlines():
            assert line.startswith(("# TYPE ", "# HELP ")) or " " in line

    def test_compact_snapshot_without_reservoir_still_valid(self):
        registry = self.build()
        compact = registry.snapshot(include_reservoir=False)
        text = to_prometheus(compact)
        assert ('repro_pipeline_stage_seconds_bucket{le="+Inf",'
                'stage="cnf"} 100') in text


class TestJsonExport:
    def test_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        registry.histogram("repro_seconds").observe(1.5)
        path = tmp_path / "metrics.json"
        write_json(registry, path)
        snapshot = load_json(path)
        assert snapshot["counters"][0]["value"] == 3
        assert snapshot["histograms"][0]["count"] == 1
        # Compact dump omits the raw reservoir.
        assert "reservoir" not in snapshot["histograms"][0]
        # And the text form is valid JSON.
        assert json.loads(to_json(registry)) == snapshot


class TestTableExport:
    def test_renders_all_sections(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", kind="a").inc(2)
        registry.gauge("repro_g").set(1.5)
        registry.histogram("repro_seconds").observe(0.25)
        table = render_table(registry)
        assert "repro_x_total{kind=a}" in table
        assert "repro_g" in table
        assert "repro_seconds" in table
        assert "p95" in table

    def test_empty_registry(self):
        assert render_table(MetricsRegistry()) == "(no metrics recorded)"
