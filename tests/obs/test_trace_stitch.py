"""Span identity and trace durability: span and trace ids, crash-time
flushing of open roots, and histogram exemplars that name the span of a
slow observation."""

import io
import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, new_span_id, use_tracer


class TestSpanIds:
    def test_ids_are_unique_and_hex(self):
        ids = {new_span_id() for _ in range(500)}
        assert len(ids) == 500
        for span_id in ids:
            assert len(span_id) == 16
            int(span_id, 16)  # parses as hex

    def test_root_span_defines_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.span.trace_id == root.span.span_id
        assert root.span.trace_id == root.span.span_id

    def test_span_ids_serialize(self):
        tracer = Tracer(sink=(buffer := io.StringIO()))
        with tracer.span("root"):
            pass
        record = json.loads(buffer.getvalue())
        assert record["span_id"]
        assert record["trace_id"] == record["span_id"]


class TestFlushOpen:
    def test_open_roots_flush_as_partial(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=buffer)
        tracer.span("doomed")  # entered, never exited
        assert tracer.flush_open() == 1
        record = json.loads(buffer.getvalue())
        assert record["name"] == "doomed"
        assert record["status"] == "partial"

    def test_flushed_roots_not_rewritten_on_close(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=buffer)
        handle = tracer.span("slow")
        tracer.flush_open()
        handle.__exit__(None, None, None)  # closes normally afterwards
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 1

    def test_error_status_survives_flush(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=buffer)
        with tracer.span("root"):
            inner = tracer.span("inner").span
            inner.status = "error"
            root = tracer.open_roots[0]
            root.status = "error"
            tracer.flush_open()
        record = json.loads(buffer.getvalue().splitlines()[0])
        assert record["status"] == "error"

    def test_flush_all_open_covers_sink_tracers(self):
        from repro.obs.trace import flush_all_open
        buffer = io.StringIO()
        tracer = Tracer(sink=buffer)
        tracer.span("hanging")
        assert flush_all_open() >= 1
        assert json.loads(buffer.getvalue())["status"] == "partial"

    def test_close_flushes_open_roots(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sink=str(path))
        tracer.span("open_at_exit")
        tracer.close()
        record = json.loads(path.read_text().strip())
        assert record["status"] == "partial"

    def test_atexit_flush_in_subprocess(self, tmp_path):
        # A run killed by sys.exit mid-span still leaves its partial
        # trace via the atexit hook.
        import subprocess
        import sys
        path = tmp_path / "crash.jsonl"
        code = (
            "import sys\n"
            "from repro.obs.trace import Tracer, set_tracer\n"
            f"tracer = Tracer(sink={str(path)!r})\n"
            "set_tracer(tracer)\n"
            "tracer.span('interrupted')\n"
            "sys.exit(3)\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 3
        record = json.loads(path.read_text().strip())
        assert record["name"] == "interrupted"
        assert record["status"] == "partial"


class TestPipelineStageExemplars:
    def test_stage_histograms_link_slow_queries_to_spans(self):
        from repro.core import AccessAreaExtractor, process_log
        from repro.obs.metrics import use_registry
        from repro.schema import skyserver_schema

        registry = MetricsRegistry()
        tracer = Tracer(keep=True)
        statements = ["SELECT objid FROM PhotoObjAll WHERE ra > %d" % i
                      for i in range(5)]
        with use_registry(registry), use_tracer(tracer):
            report = process_log(statements,
                                 AccessAreaExtractor(skyserver_schema()))
        assert report.extraction_count == 5
        root = next(r for r in tracer.roots if r.name == "process_log")
        query_ids = {child.span_id for child in root.children
                     if child.name == "query"}
        histogram = registry.histogram("repro_pipeline_stage_seconds",
                                       stage="parse")
        assert histogram.exemplars
        assert {span_id for _, span_id in histogram.exemplars} <= query_ids

    def test_untraced_runs_record_no_exemplars(self):
        from repro.core import AccessAreaExtractor, process_log
        from repro.obs.metrics import use_registry
        from repro.schema import skyserver_schema

        registry = MetricsRegistry()
        with use_registry(registry):
            process_log(["SELECT objid FROM PhotoObjAll WHERE ra > 1"],
                        AccessAreaExtractor(skyserver_schema()))
        histogram = registry.histogram("repro_pipeline_stage_seconds",
                                       stage="parse")
        assert histogram.count == 1
        assert histogram.exemplars == []
