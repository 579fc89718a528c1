"""The traced run's per-layer ledger.

:class:`Ledger` wraps each layer's public entry points at the places
the program looks them up (module attributes and class methods),
records one span per call -- name, start, end, parent, request id --
in memory, and turns the spans into the per-layer metrics of
``BENCHMARK.json``.  Nothing here runs unless ``--trace 1`` is given,
and :meth:`Ledger.uninstall` puts every original back.

A span's self time is its duration minus its children's and minus the
garbage-collector pauses that hit while it was innermost, so the self
times, ``gc.pause_s``, ``service.host_s`` (client-seen request time
outside the application) and ``unaccounted_s`` add up to the traced
wall time.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import itertools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import repro.analysis.experiments as experiments
import repro.core.extractor as extractor
import repro.core.pipeline as pipeline
import repro.core.stream as stream
import repro.recommend.fitting as fitting
import repro.recommend.recommender as recommender
import repro.service.asgi as asgi
import repro.service.state as state
import repro.store.codec as codec
import repro.store.store as store
from repro.clustering.incremental import IncrementalDBSCAN
from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.distance.kernel import PackedPartition

import workloads

#: per-layer self seconds: metric -> span names summed.
SELF_SECONDS = {
    "service.app_s": ["App.__call__"],
    "state.ingest_self_s": ["AppState.ingest"],
    "state.snapshot_s": ["AppState.snapshot"],
    "state.refit_s": ["AppState.recommender"],
    "sqlparser.parse_s": ["parse"],
    "core.extract_s": ["AccessAreaExtractor.extract",
                       "AccessAreaExtractor.extract_statement"],
    "algebra.cnf_s": ["to_cnf"],
    "algebra.consolidate_s": ["consolidate"],
    "stream.self_s": ["StreamMonitor.process"],
    "intern.s": ["AccessAreaInterner.intern"],
    "codec.digest_s": ["fingerprint_digest"],
    "incremental.self_s": ["IncrementalDBSCAN.add"],
    "distance.insert_row_s": ["BlockSparseDistanceMatrix.insert_row"],
    "distance.kernel_extend_s": ["PackedPartition.extend"],
    "distance.neighbors_s": ["BlockSparseDistanceMatrix.neighbors"],
    "distance.fill_s": ["compute_matrix"],
    "store.append_s": ["AreaStore.append_journal",
                       "AreaStore.append_area"],
    "store.checkpoint_s": ["AreaStore.checkpoint"],
    "store.replay_s": ["reopen", "StreamMonitor.replay",
                       "AreaStore.get_area"],
    "obs.record_s": ["AccessAreaInterner.record", "AreaStore.record"],
    "aggregation.s": ["aggregate_cluster", "area_coverage"],
    "recommend.fit_s": ["fit_recommender"],
    "recommend.query_s": ["InterestRecommender.recommend_for_sql",
                          "InterestRecommender.popular"],
    "pipeline.s": ["process_log"],
    "clustering.dbscan_s": ["partitioned_dbscan"],
    "analysis.prepare_s": ["run_case_study"],
    "analysis.rows_s": ["density_contrast"],
    "engine.object_coverage_s": ["object_coverage"],
}

#: per-layer call counts: metric -> span names counted.
CALLS = {
    "service.requests": ["App.__call__"],
    "sqlparser.calls": ["parse"],
    "intern.calls": ["AccessAreaInterner.intern"],
    "codec.digests": ["fingerprint_digest"],
    "incremental.adds": ["IncrementalDBSCAN.add"],
    "distance.insert_rows": ["BlockSparseDistanceMatrix.insert_row"],
    "store.journal_appends": ["AreaStore.append_journal"],
    "store.checkpoints": ["AreaStore.checkpoint"],
    "obs.record_calls": ["AccessAreaInterner.record", "AreaStore.record"],
    "aggregation.calls": ["aggregate_cluster"],
    "recommend.fits": ["fit_recommender"],
    "recommend.queries": ["InterestRecommender.recommend_for_sql",
                          "InterestRecommender.popular"],
}

#: layers whose self time counts as "distance" and as "parse + extract"
#: in the attribution check of the repeat path.
DISTANCE = ["distance.insert_row_s", "distance.kernel_extend_s",
            "distance.neighbors_s", "distance.fill_s"]
EXTRACTION = ["sqlparser.parse_s", "core.extract_s", "algebra.cnf_s",
              "algebra.consolidate_s"]

_NAME, _START, _END, _PARENT, _REQUEST, _CHILD, _GC = range(7)


class Ledger:
    """In-memory spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: set by the workload: request intervals as the client saw
        #: them, input-dependent store figures, etc.
        self.in_flight: list[tuple[float, float]] = []
        self.issued: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.read_wait = 0.0
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._gc_outside: list[tuple[float, float]] = []
        self._gc_started = 0.0
        self._matrices: list = []
        self._span = contextvars.ContextVar("perfbench_span",
                                            default=None)
        self._request = contextvars.ContextVar("perfbench_request",
                                               default=None)
        self._request_ids = itertools.count()
        self._request_kind: dict = {}
        self._restore: list = []
        self._last_built: dict[tuple[str, int], int] = {}

    # -- spans ---------------------------------------------------------

    def _open(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._span.get(),
                  self._request.get(), 0.0, 0.0]
        return record, self._span.set(record)

    def _close(self, record, token) -> None:
        record[_END] = time.perf_counter()
        self._span.reset(token)
        parent = record[_PARENT]
        if parent is not None:
            parent[_CHILD] += record[_END] - record[_START]
        self.spans.append(record)

    @contextmanager
    def span(self, name: str):
        record, token = self._open(name)
        try:
            yield
        finally:
            self._close(record, token)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        self.gc_collections += 1
        self.gc_pause += pause
        current = self._span.get()
        if current is not None:
            current[_GC] += pause
        else:
            self._gc_outside.append((self._gc_started, now))

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None,
             after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(*args)`` runs ahead of the call and its value is handed
        to ``after(value, result, *args)`` once the call returned; both
        run outside the span.  A raised exception is counted under
        ``name + "!raised"`` and re-raised unchanged.
        """
        original = getattr(owner, attr)
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            value = before(*args) if before is not None else None
            record, token = ledger._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                ledger._close(record, token)
                ledger.counts[name + "!raised"] += 1
                raise
            ledger._close(record, token)
            if after is not None:
                after(value, result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def _wrap_app(self) -> None:
        original = asgi.App.__call__
        ledger = self

        async def app_call(app, scope, receive, send):
            if scope.get("type") != "http":
                return await original(app, scope, receive, send)
            request = dict(scope.get("headers") or ()).get(
                b"x-bench-request")
            request = (request.decode("latin-1") if request
                       else f"r{next(ledger._request_ids)}")
            ledger._request_kind[request] = scope.get("method", "GET")
            status = [500]

            async def observed(message):
                if message["type"] == "http.response.start":
                    status[0] = message["status"]
                await send(message)

            request_token = ledger._request.set(request)
            record, token = ledger._open("App.__call__")
            issued = ledger.issued.get(request)
            if issued is not None and scope.get("method") == "GET":
                ledger.read_wait += record[_START] - issued
            try:
                return await original(app, scope, receive, observed)
            finally:
                ledger._close(record, token)
                ledger._request.reset(request_token)
                if status[0] >= 500:
                    ledger.counts["service.errors_5xx"] += 1

        self._patch(asgi.App, "__call__", app_call)

    def install(self) -> None:
        """Wrap every traced entry point and start counting."""
        wrap = self.wrap
        counts = self.counts
        self._wrap_app()

        def ingest_events(_value, outcome, *_args):
            counts["stream.events"] += len(outcome.events)

        wrap(state.AppState, "ingest", "AppState.ingest",
             after=ingest_events)
        wrap(state.AppState, "snapshot", "AppState.snapshot",
             after=self._rebuilt("state.snapshots"))
        wrap(state.AppState, "recommender", "AppState.recommender",
             after=self._rebuilt("state.refits"))
        wrap(state, "fit_recommender", "fit_recommender")
        wrap(state, "aggregate_cluster", "aggregate_cluster")
        wrap(state, "area_coverage", "area_coverage")
        wrap(state, "fingerprint_digest", "fingerprint_digest")

        wrap(extractor, "parse", "parse")
        wrap(extractor, "to_cnf", "to_cnf")
        wrap(extractor, "consolidate_cnf", "consolidate")
        wrap(extractor.AccessAreaExtractor, "extract",
             "AccessAreaExtractor.extract")
        wrap(extractor.AccessAreaExtractor, "extract_statement",
             "AccessAreaExtractor.extract_statement")

        wrap(stream.StreamMonitor, "process", "StreamMonitor.process")
        wrap(stream.StreamMonitor, "replay", "StreamMonitor.replay")
        wrap(pipeline.AccessAreaInterner, "intern",
             "AccessAreaInterner.intern",
             before=lambda interner, _area: interner.hits,
             after=self._intern_counts)
        wrap(pipeline.AccessAreaInterner, "record",
             "AccessAreaInterner.record")
        wrap(codec, "fingerprint_digest", "fingerprint_digest")
        wrap(store, "fingerprint_digest", "fingerprint_digest")

        wrap(IncrementalDBSCAN, "add", "IncrementalDBSCAN.add",
             before=lambda clusterer, *_: (clusterer.interned_hits,
                                           clusterer.n_unique),
             after=self._incremental_counts)
        wrap(BlockSparseDistanceMatrix, "insert_row",
             "BlockSparseDistanceMatrix.insert_row",
             after=lambda _v, _r, matrix, *_: self._note_matrix(matrix))
        wrap(BlockSparseDistanceMatrix, "neighbors",
             "BlockSparseDistanceMatrix.neighbors")
        wrap(PackedPartition, "extend", "PackedPartition.extend")

        wrap(store.AreaStore, "append_journal",
             "AreaStore.append_journal")
        wrap(store.AreaStore, "append_area", "AreaStore.append_area",
             before=lambda area_store, _area: len(area_store),
             after=self._store_appends)
        wrap(store.AreaStore, "checkpoint", "AreaStore.checkpoint")
        wrap(store.AreaStore, "record", "AreaStore.record")
        wrap(store.AreaStore, "get_area", "AreaStore.get_area")

        wrap(recommender, "aggregate_cluster", "aggregate_cluster")
        wrap(recommender.InterestRecommender, "recommend_for_sql",
             "InterestRecommender.recommend_for_sql")
        wrap(recommender.InterestRecommender, "popular",
             "InterestRecommender.popular")
        wrap(fitting, "fit_recommender", "fit_recommender")

        wrap(experiments, "run_case_study", "run_case_study")
        wrap(experiments, "process_log", "process_log",
             after=self._pipeline_counts)
        wrap(pipeline, "process_log", "process_log",
             after=self._pipeline_counts)
        wrap(experiments, "compute_matrix", "compute_matrix",
             after=self._fill_counts)
        wrap(experiments, "partitioned_dbscan", "partitioned_dbscan")
        wrap(experiments, "aggregate_cluster", "aggregate_cluster")
        wrap(experiments, "area_coverage", "area_coverage")
        wrap(experiments, "object_coverage", "object_coverage")
        wrap(experiments, "density_contrast", "density_contrast")

        original_fsync = os.fsync

        def counted_fsync(fd):
            counts["store.fsyncs"] += 1
            return original_fsync(fd)

        self._patch(os, "fsync", counted_fsync)
        gc.callbacks.append(self._on_gc)
        # The benchmark's own readings of the host's speed, between the
        # operations: a span of their own, so their time is accounted
        # for and never taken for the program's.
        wrap(workloads, "reference_slice", "reference_slice")

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- count hooks ---------------------------------------------------

    def _rebuilt(self, counter: str):
        """Count calls that returned a new object (a rebuild)."""
        def after(_value, result, owner, *_args):
            key = (counter, id(owner))
            if self._last_built.get(key) != id(result):
                self._last_built[key] = id(result)
                self.counts[counter] += 1
        return after

    def _intern_counts(self, hits, _area, interner, *_args):
        self.counts["intern.hits"] += interner.hits - hits

    def _incremental_counts(self, before, _update, clusterer, *_args):
        hits, unique = before
        self.counts["incremental.hits"] += clusterer.interned_hits - hits
        self.counts["incremental.inserts"] += clusterer.n_unique - unique

    def _store_appends(self, before, _digest, area_store, *_args):
        self.counts["store.area_appends"] += len(area_store) - before

    def _pipeline_counts(self, _value, report, *_args):
        self.counts["pipeline.statements"] += report.total
        self.counts["pipeline.failures"] += report.failure_count

    def _fill_counts(self, _value, matrix, *_args):
        self.counts["distance.pairs_computed"] += \
            matrix.stats.pairs_computed
        self.counts["distance.stored_floats"] += matrix.stats.stored_floats
        self._note_matrix(matrix)

    def _note_matrix(self, matrix) -> None:
        if not hasattr(matrix, "partitions"):
            return
        if not any(seen is matrix for seen in self._matrices):
            self._matrices.append(matrix)

    # -- the ledger ----------------------------------------------------

    def self_seconds(self, spans=None) -> Counter:
        totals: Counter = Counter()
        for record in self.spans if spans is None else spans:
            totals[record[_NAME]] += (record[_END] - record[_START]
                                      - record[_CHILD] - record[_GC])
        return totals

    def _host_seconds(self) -> float:
        """Client-seen request time spent outside ``App.__call__``."""
        merged: list[list[float]] = []
        for start, end in sorted(self.in_flight):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        covered = sum(end - start for start, end in merged)
        app = sum(record[_END] - record[_START] for record in self.spans
                  if record[_NAME] == "App.__call__")
        gc_outside = sum(
            max(0.0, min(end, m_end) - max(start, m_start))
            for start, end in self._gc_outside
            for m_start, m_end in merged)
        return covered - app - gc_outside if merged else 0.0

    def metrics(self, wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric of the traced pass."""
        calls = Counter(record[_NAME] for record in self.spans)
        out: dict[str, float] = self._by_metric(self.spans)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[name] for name in names)
        counts = self.counts
        adds = out["incremental.adds"]
        out.update({
            "service.errors_5xx": counts["service.errors_5xx"],
            "service.host_s": self._host_seconds(),
            "state.snapshots": counts["state.snapshots"],
            "state.refits": counts["state.refits"],
            "state.read_wait_s": self.read_wait,
            "sqlparser.errors": counts["parse!raised"],
            "stream.events": counts["stream.events"],
            "intern.hit_ratio": _ratio(counts["intern.hits"],
                                       out["intern.calls"]),
            "incremental.inserts": counts["incremental.inserts"],
            "incremental.hit_ratio": _ratio(counts["incremental.hits"],
                                            adds),
            "incremental.refused": counts["IncrementalDBSCAN.add!raised"],
            "distance.largest_partition": max(
                (len(members) for matrix in self._matrices
                 for _key, members in matrix.partitions()), default=0),
            "distance.pairs_computed": counts["distance.pairs_computed"],
            "distance.stored_floats": counts["distance.stored_floats"],
            "store.area_appends": counts["store.area_appends"],
            "store.fsyncs": counts["store.fsyncs"],
            "store.bytes_per_sql_byte": self.extra.get(
                "store.bytes_per_sql_byte", 0.0),
            "store.replayed": self.extra.get("store.replayed", 0),
            "store.pool_hit_ratio": self.extra.get(
                "store.pool_hit_ratio", 0.0),
            "pipeline.statements": counts["pipeline.statements"],
            "pipeline.failures": counts["pipeline.failures"],
            "gc.collections": self.gc_collections,
            "gc.pause_s": self.gc_pause,
        })
        attributed = (sum(self.self_seconds().values()) + self.gc_pause
                      + out["service.host_s"])
        out["wall_s"] = wall
        out["unaccounted_s"] = wall - attributed
        out["trace_overhead_s"] = wall - untraced_wall
        return out

    def _by_metric(self, spans) -> dict[str, float]:
        seconds = self.self_seconds(spans)
        return {metric: sum(seconds[name] for name in names)
                for metric, names in SELF_SECONDS.items()}

    def _under(self, root: str) -> list:
        """Spans named ``root`` and every span below one."""
        inside = []
        for record in self.spans:
            node = record
            while node is not None and node[_NAME] != root:
                node = node[_PARENT]
            if node is not None:
                inside.append(record)
        return inside

    def attribution(self) -> dict:
        """What the ledger says about where the time went (reported,
        never enforced): the largest self time of the pass and of the
        study, and extraction against distance inside the POSTs."""
        out: dict = {}
        scopes = {
            "pass": self.spans,
            "study": self._under("run_case_study"),
            "posts": [record for record in self.spans
                      if self._request_kind.get(record[_REQUEST])
                      == "POST"],
        }
        for scope, spans in scopes.items():
            if not spans:
                continue
            seconds = self._by_metric(spans)
            largest = max(seconds, key=seconds.get)
            out[scope] = {
                "largest_self_time": largest,
                "largest_self_s": seconds[largest],
                "extraction_s": sum(seconds[m] for m in EXTRACTION),
                "distance_s": sum(seconds[m] for m in DISTANCE),
            }
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent, request]``,
        the parent as an index into the list."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [[record[_NAME], record[_START], record[_END],
                  None if record[_PARENT] is None
                  else index[id(record[_PARENT])],
                  record[_REQUEST]]
                 for record in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
