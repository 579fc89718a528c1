"""Cross-process trace stitching: context propagation, grafting,
parallel/serial tree parity, crash-time flushing.

The contract under test: a parallel matrix build produces ONE span
tree — the parent's ``distance_matrix`` root with per-chunk children
minted inside the workers, shipped back on :class:`BlockInfo`, and
grafted under the parent-side ``fill`` span with the root's trace id.
"""

import io
import json

import pytest

from repro.distance.matrix import DistanceMatrix
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (Span, TraceContext, Tracer, new_span_id,
                             use_tracer)


def _metric(a: float, b: float) -> float:
    return abs(a - b)


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


class TestTraceContext:
    def test_current_context_names_innermost_span(self):
        tracer = Tracer()
        with tracer.span("root"), tracer.span("fill") as fill:
            ctx = tracer.current_context()
            assert isinstance(ctx, TraceContext)
            assert ctx.parent_span_id == fill.span.span_id
            assert ctx.trace_id == fill.span.trace_id

    def test_no_open_span_means_no_context(self):
        assert Tracer().current_context() is None

    def test_context_survives_pickling(self):
        import pickle
        ctx = TraceContext(trace_id="t" * 16, parent_span_id="p" * 16)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestAttach:
    def test_dict_tree_grafts_under_open_span(self):
        tracer = Tracer()
        shipped = {"name": "distance_chunk", "span_id": "f" * 16,
                   "duration_s": 0.25, "status": "ok",
                   "attrs": {"pid": 12345},
                   "children": [{"name": "inner", "span_id": "e" * 16,
                                 "duration_s": 0.1, "status": "ok"}]}
        with tracer.span("root") as root:
            grafted = tracer.attach(shipped)
        child = root.span.children[0]
        assert child is grafted
        assert child.name == "distance_chunk"
        assert child.span_id == "f" * 16
        assert child.duration == pytest.approx(0.25)
        assert child.trace_id == root.span.span_id
        assert child.children[0].name == "inner"

    def test_attach_without_open_span_becomes_root(self):
        tracer = Tracer(sink=(buffer := io.StringIO()))
        tracer.attach(Span("orphan"))
        assert [r.name for r in tracer.roots] == ["orphan"]
        assert json.loads(buffer.getvalue())["name"] == "orphan"

    def test_module_level_attach_tolerates_none(self):
        from repro.obs.trace import attach
        assert attach(None) is None


class TestParallelStitching:
    # 150 items → 11175 pairs → 6 chunks of DEFAULT_CHUNK_PAIRS=2048.
    ITEMS = [float(v) for v in range(150)]

    def _tree(self, n_jobs: int) -> Span:
        tracer = Tracer()
        with use_tracer(tracer):
            DistanceMatrix.compute(self.ITEMS, _metric, n_jobs=n_jobs,
                                   registry=MetricsRegistry())
        assert len(tracer.roots) == 1, "must be ONE stitched tree"
        return tracer.roots[0]

    def test_parallel_build_yields_one_stitched_tree(self):
        root = self._tree(n_jobs=2)
        assert root.name == "distance_matrix"
        fill = root.find("fill")
        chunks = [c for c in fill.children
                  if c.name == "distance_chunk"]
        assert len(chunks) == 6  # ceil(11175 / 2048)
        for chunk in chunks:
            assert chunk.trace_id == root.span_id
            assert chunk.attrs["pid"]  # minted worker-side
            assert chunk.attrs["parent_span_id"] == fill.span_id

    def test_worker_spans_sum_within_parent_envelope(self):
        root = self._tree(n_jobs=2)
        fill = root.find("fill")
        chunks = [c for c in fill.children
                  if c.name == "distance_chunk"]
        total = sum(c.duration for c in chunks)
        # Two workers run concurrently, so the summed child time is
        # bounded by the fill duration times the worker count (plus
        # slack for timer granularity); each single chunk must fit
        # inside the parent wall-clock.
        assert total <= fill.duration * 2 * 1.5 + 0.05
        for chunk in chunks:
            assert chunk.duration <= fill.duration + 0.05

    def test_serial_and_parallel_block_trees_have_same_shape(self):
        # The chunk evaluator mints the same span protocol on both
        # paths: serial and parallel runs must yield identical stitched
        # tree shapes (chunk order aside).
        from repro.distance.parallel import compute_pairs
        from repro.obs import trace as trace_mod

        items = [float(v) for v in range(9)]
        pairs = [(k, i, j) for k, (i, j) in enumerate(
            (i, j) for i in range(9) for j in range(i + 1, 9))]

        def tree(n_jobs):
            tracer = Tracer()
            with use_tracer(tracer), tracer.span("fill"):
                _, infos = compute_pairs(items, _metric, pairs, n_jobs,
                                         chunk_pairs=10)
                for info in infos:
                    trace_mod.attach(info.span)
            return tracer.roots[0]

        def normalized(span):
            return (span.name, tuple(sorted(
                normalized(c) for c in span.children)))

        assert normalized(tree(1)) == normalized(tree(2))

    def test_serial_chunks_carry_no_worker_metrics(self):
        # The serial path records into the live registry directly; a
        # shipped snapshot would double-count on merge.
        from repro.distance.parallel import compute_pairs
        pairs = [(k, i, j) for k, (i, j) in enumerate(
            (i, j) for i in range(10) for j in range(i + 1, 10))]
        _, infos = compute_pairs(self.ITEMS[:10], _metric, pairs,
                                 n_jobs=1, chunk_pairs=20)
        assert all(info.metrics is None for info in infos)


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
