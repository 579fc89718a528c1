"""The three workloads: timed passes and output checks.

Every pass of a workload does identical work for a given seed, on
program state built by :mod:`ready`.  A pass returns its raw samples;
:mod:`run` turns them into metrics.  Load comes from this one process on
one event loop: ingest is a closed loop with one client (arrival order
defines the labels, so a log shipper sends in order and waits for each
acknowledgement).
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional
from urllib.parse import quote, urlencode

import repro.analysis.experiments as experiments
import repro.core.pipeline as pipeline
import repro.recommend.fitting as fitting
from repro.clustering import DBSCAN
from repro.core.extractor import AccessAreaExtractor
from repro.distance import QueryDistance
from repro.distance.block_sparse import compute_matrix
from repro.obs.metrics import MetricsRegistry
from repro.service import AppState
from repro.workload import WorkloadConfig
from repro.workload.log import LogEntry

import inputs
import ready
from ready import EPS, MIN_PTS

#: a pass's nominal length: ``--seconds`` buys
#: ``round(seconds / PASS_SECONDS)`` passes (at least one), so runs with
#: equal arguments do equal work.  On 2 shared vCPUs, with the host's
#: slowness mostly between 0.8 and 1.4, a pass took about 7.8 s on
#: ``ingest_unique``, 8.3 s on ``serve_repeat`` and 6.3 s on
#: ``batch_table1``: 4, 3 and 5 passes at ``--seconds 30``, and 29-38 s
#: a run on average.
PASS_SECONDS = {"ingest_unique": 7.5, "serve_repeat": 10.0,
                "batch_table1": 6.0}
#: GETs after the unique stream, cycling over the four read routes.
UNIQUE_READS = 750
#: ``serve_repeat`` issues a GET beside every third POST: 800 reads a
#: pass, and most POSTs do not share the loop with a read.
READ_EVERY = 3
#: reads of the study's interests per pass: each takes a few
#: milliseconds, and the percentiles pool the reads of every pass, so
#: five passes give them 2,000 samples.
BATCH_READS = 400
#: an operation answered after this long counts as failed; over the
#: socket the benchmark stops waiting for it.
TIMEOUT_S = 30.0
WARM_STATEMENTS = 60
#: iterations of :func:`reference_slice`: about 0.1 ms on 2 shared
#: vCPUs, so a slice after every operation adds a few percent to a pass.
REFERENCE_SLICE = 400
#: slices timed before and after the study and a reopen, the two long
#: operations; inside them a timer signal starts one slice every
#: ``SAMPLE_INTERVAL_S``, which adds about one percent to their time.
EDGE_SLICES = 50
SAMPLE_INTERVAL_S = 0.01


def reference_slice() -> None:
    """A fixed slice of pure-Python work: a fresh dictionary filled by
    integer arithmetic, like the program's own lookups and stores.  Of
    the objects it makes only the dictionary is tracked by the garbage
    collector, so the program's heap hardly changes its time."""
    table: dict[int, int] = {}
    for i in range(REFERENCE_SLICE):
        key = i % 97 * 13 + i * 7 % 13
        table[key] = table.get(key, 0) + i


def slice_times(count: int) -> list[float]:
    """Seconds each of ``count`` reference slices takes, run back to
    back."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - started)
    return times


@dataclass
class Pass:
    """Raw samples of one pass.

    ``window`` holds the blocking operations that take the pass's
    ``statements`` in (each POST until its answer and the read beside
    it are both in, or the whole study) and ``restart`` the reopen
    after them, if any: together they run from the first statement of
    the input to the program's answer for all of it.  ``ingest`` and
    ``reads`` are per-operation latencies.
    """

    statements: int = 0
    window: list[float] = field(default_factory=list)
    restart: list[float] = field(default_factory=list)
    ingest: list[float] = field(default_factory=list)
    reads: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: seconds the pass took, as measured.
    wall: float = 0.0
    shares: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    #: fills ``shares`` and ``checks``; runs after the timed window.
    finish: Optional[Callable[[], None]] = field(default=None, repr=False)
    #: seconds of each :func:`reference_slice` run between operations:
    #: the host's speed through the pass.
    host: list[float] = field(default_factory=list)
    #: for every sample above, the range of ``host`` indices of the
    #: slices run while it ran (empty for all but the long operations).
    at: dict[str, list[tuple[int, int]]] = field(default_factory=lambda: {
        "window": [], "restart": [], "ingest": [], "reads": []})

    def book(self, kind: str, seconds: float,
             since: Optional[int] = None) -> None:
        """Record one timed operation of ``kind``; ``since`` is the
        length of ``host`` when it began, if slices ran inside it."""
        getattr(self, kind).append(seconds)
        end = len(self.host)
        self.at[kind].append((end if since is None else since, end))

    def tick(self, count: int = 1) -> None:
        """Time reference slices, outside any timed operation."""
        self.host.extend(slice_times(count))

    @contextmanager
    def sampling(self):
        """Time a reference slice every ``SAMPLE_INTERVAL_S`` while the
        block runs, from a timer signal: the host's speed inside one
        long operation."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda _signum, _frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class ReadPlan:
    """Which GET the ``r``-th read issues.

    The reads cycle over ``/clusters``, ``/clusters/{id}``,
    ``/users/{id}/interests`` and ``/recommend`` in equal shares; every
    other ``/recommend`` asks for a statement's nearest interests, the
    rest for the popular ones.  This mix is chosen, not measured.  Ids,
    users and SQL come from earlier answers, so the sequence is fixed
    for a given seed.
    """

    ROUTES = 4

    def __init__(self) -> None:
        self.cluster_ids: list[int] = []
        #: ``(sql, user)`` of every arrival that extracted, in order.
        self.extracted: list[tuple[str, str]] = []

    def note_post(self, sql: str, user: str, answer: dict) -> None:
        if answer.get("status") in ("clustered", "unclustered"):
            self.extracted.append((sql, user))

    def note_read(self, path: str, status: int, body: bytes) -> None:
        if path == "/clusters" and status == 200:
            self.cluster_ids = [row["id"]
                                for row in json.loads(body)["clusters"]]

    def next(self, r: int) -> tuple[str, Optional[dict]]:
        kind = r % self.ROUTES
        # A stride coprime to most lengths spreads the reads over the
        # clusters, users and statements seen so far.
        pick = r * 7919
        sql, user = (self.extracted[pick % len(self.extracted)]
                     if self.extracted else (None, None))
        if kind == 1 and self.cluster_ids:
            cluster = self.cluster_ids[pick % len(self.cluster_ids)]
            return f"/clusters/{cluster}", None
        if kind == 2 and user is not None:
            return f"/users/{quote(user, safe='')}/interests", None
        if kind == 3:
            if r // self.ROUTES % 2 == 0 and sql is not None:
                return "/recommend", {"sql": sql}
            return "/recommend", None
        return "/clusters", None


def labels_match_batch(state: AppState) -> bool:
    """Live labels equal a weighted batch DBSCAN, numbering included."""
    clusterer = state.clusterer
    areas = clusterer.areas()
    matrix = compute_matrix(areas, QueryDistance(state.frozen_stats),
                            mode="kernel", eps=EPS)
    batch = DBSCAN(eps=EPS, min_pts=MIN_PTS).fit(
        areas, matrix=matrix, weights=clusterer.weights())
    return list(batch.labels) == clusterer.labels()


def valid_arrivals_clustered(arrivals, statuses) -> bool:
    """Every arrival the generator made valid was answered
    ``clustered``: not failed, refused (``unclustered``) or a 5xx."""
    return len(statuses) == len(arrivals) and all(
        status == "clustered" for arrival, status in zip(arrivals, statuses)
        if arrival.kind == inputs.VALID)


def same_partition(left: list[int], right: list[int]) -> bool:
    """Equal labellings up to renumbering of the clusters."""
    if len(left) != len(right):
        return False
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for a, b in zip(left, right):
        if (a < 0) != (b < 0):
            return False
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return False
    return True


def _table_sets(state: AppState) -> list[frozenset]:
    return [frozenset(area.table_set) for area in state.clusterer.areas()]


def _shares(arrivals, unique_ids, state: AppState) -> dict:
    return inputs.input_shares(
        [arrival.sql for arrival in arrivals], unique_ids,
        _table_sets(state),
        sum(arrival.kind == inputs.HOSTILE for arrival in arrivals))


def _note_answer(status: int, body: bytes, late: bool, arrival,
                 plan: ReadPlan, result: Pass, statuses: list,
                 unique_ids: list) -> None:
    """Book one POST's answer."""
    result.attempted += 1
    result.failed += status >= 500 or late
    if status >= 500:
        statuses.append(f"http {status}")
        unique_ids.append(None)
        return
    answer = json.loads(body)
    statuses.append(answer.get("status"))
    unique_ids.append(answer.get("unique_index"))
    plan.note_post(arrival.sql, arrival.user, answer)


# -- ingest_unique ------------------------------------------------------

class IngestUnique:
    """The generator's log, in order, into a memory-only service."""

    setup = staticmethod(ready.memory_service)
    prepare = staticmethod(inputs.unique_log)

    async def warm(self, log, workdir: str) -> None:
        _state, client = await self.setup("", 0)
        plan = ReadPlan()
        await self._stream(client, log[:WARM_STATEMENTS], plan, None,
                           Pass(), [], [])
        await self._reads(client, plan, 8, None, Pass())

    @staticmethod
    async def _stream(client, log, plan, ledger, result, statuses,
                      unique_ids):
        for arrival in log:
            started = time.perf_counter()
            response = await client.apost(
                "/queries", json={"sql": arrival.sql, "user": arrival.user})
            finished = time.perf_counter()
            result.book("window", finished - started)
            result.book("ingest", finished - started)
            if ledger is not None:
                ledger.in_flight.append((started, finished))
            _note_answer(response.status, response.body,
                         finished - started > TIMEOUT_S, arrival, plan,
                         result, statuses, unique_ids)
            result.tick()

    @staticmethod
    async def _reads(client, plan, count, ledger, result):
        for r in range(count):
            path, params = plan.next(r)
            started = time.perf_counter()
            response = await client.aget(path, params=params)
            finished = time.perf_counter()
            result.book("reads", finished - started)
            result.attempted += 1
            result.failed += (response.status >= 500
                              or finished - started > TIMEOUT_S)
            if ledger is not None:
                ledger.in_flight.append((started, finished))
            plan.note_read(path, response.status, response.body)
            result.tick()

    async def run_pass(self, built, log, ledger=None) -> Pass:
        state, client = built
        plan = ReadPlan()
        statuses: list = []
        unique_ids: list = []
        result = Pass()
        await self._stream(client, log, plan, ledger, result, statuses,
                           unique_ids)
        await self._reads(client, plan, UNIQUE_READS, ledger, result)
        result.statements = len(log)

        def finish() -> None:
            result.shares = _shares(log, unique_ids, state)
            result.checks["valid statements clustered"] = \
                valid_arrivals_clustered(log, statuses)
            result.checks["live labels equal batch DBSCAN"] = \
                labels_match_batch(state)

        result.finish = finish
        return result


# -- serve_repeat -------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.finished = 0.0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    def send(self, method: str, target: str, body: bytes,
             request_id: str) -> None:
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"host: 127.0.0.1\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(body)}\r\n"
                f"x-bench-request: {request_id}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)

    async def receive(self) -> tuple[int, bytes]:
        status_line = await self.reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        self.finished = time.perf_counter()
        return status, body

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class ServeRepeat:
    """Bot traffic through the socket host into a store-backed service,
    with reads beside the writes, then a restart on the same store."""

    setup = staticmethod(ready.store_service)
    prepare = staticmethod(inputs.repeat_stream)

    async def warm(self, stream, workdir: str) -> None:
        built = await self.setup(workdir, 0)
        await self._session(built, stream[:WARM_STATEMENTS], None, Pass(),
                            [], [])
        await self.release(built)

    @staticmethod
    async def release(built) -> None:
        state, server, _store_dir = built
        # Let the host's connection handlers see the clients hang up
        # before the listener stops.
        current = asyncio.current_task()
        handlers = [task for task in asyncio.all_tasks()
                    if task is not current]
        if handlers:
            await asyncio.wait(handlers, timeout=TIMEOUT_S)
        await server.stop()
        state.close()

    @staticmethod
    async def _session(built, stream, ledger, result, statuses,
                       unique_ids):
        _state, server, _store_dir = built
        writer = await Connection.open(server.port)
        reader = await Connection.open(server.port)
        plan = ReadPlan()
        reads = 0
        try:
            for i, arrival in enumerate(stream):
                body = json.dumps({"sql": arrival.sql,
                                   "user": arrival.user}).encode()
                started = time.perf_counter()
                writer.send("POST", "/queries", body, f"p{i}")
                waits = [writer.receive()]
                path = None
                if i % READ_EVERY == READ_EVERY - 1:
                    # One loop turn lets the server read the POST first,
                    # so the GET always waits behind the ingest instead
                    # of racing it through the selector.
                    await asyncio.sleep(0)
                    path, params = plan.next(reads)
                    target = path + (f"?{urlencode(params)}" if params
                                     else "")
                    request_id = f"g{reads}"
                    if ledger is not None:
                        ledger.issued[request_id] = time.perf_counter()
                    read_started = time.perf_counter()
                    reader.send("GET", target, b"", request_id)
                    waits.append(reader.receive())
                    reads += 1
                try:
                    answers = await asyncio.wait_for(
                        asyncio.gather(*waits), TIMEOUT_S)
                except asyncio.TimeoutError:
                    # A timed-out operation misses any latency limit.
                    result.attempted += len(waits)
                    result.failed += len(waits)
                    result.book("window", TIMEOUT_S)
                    result.book("ingest", TIMEOUT_S)
                    if path is not None:
                        result.book("reads", TIMEOUT_S)
                    statuses.append("timeout")
                    unique_ids.append(None)
                    await writer.close()
                    await reader.close()
                    writer = await Connection.open(server.port)
                    reader = await Connection.open(server.port)
                    continue
                result.book("window", time.perf_counter() - started)
                status, answer = answers[0]
                result.book("ingest", writer.finished - started)
                if ledger is not None:
                    ledger.in_flight.append((started, writer.finished))
                _note_answer(status, answer, False, arrival, plan, result,
                             statuses, unique_ids)
                if path is not None:
                    status, answer = answers[1]
                    result.book("reads", reader.finished - read_started)
                    result.attempted += 1
                    result.failed += status >= 500
                    if ledger is not None:
                        ledger.in_flight.append((read_started,
                                                 reader.finished))
                    plan.note_read(path, status, answer)
                result.tick()
        finally:
            await writer.close()
            await reader.close()

    async def run_pass(self, built, stream, ledger=None) -> Pass:
        state, _server, store_dir = built
        result = Pass()
        statuses: list = []
        unique_ids: list = []
        await self._session(built, stream, ledger, result, statuses,
                            unique_ids)
        labels_before = state.clusterer.labels()
        stored_bytes = state.store.segments.total_bytes()
        await self.release(built)
        result.tick(EDGE_SLICES)
        since = len(result.host)
        reopen_started = time.perf_counter()
        with (ledger.span("reopen") if ledger is not None
              else nullcontext()), result.sampling():
            reopened = AppState(ready.store_config(store_dir),
                                registry=MetricsRegistry())
            labels_after = reopened.clusterer.labels()
        result.book("restart", time.perf_counter() - reopen_started, since)
        result.tick(EDGE_SLICES)
        result.statements = len(stream)
        if ledger is not None:
            sql_bytes = sum(len(arrival.sql.encode("utf-8"))
                            for arrival in stream)
            ledger.extra.update({
                "store.bytes_per_sql_byte": stored_bytes / sql_bytes,
                "store.replayed": reopened.replayed,
                "store.pool_hit_ratio": reopened.store.pool.stats.hit_rate,
            })
        reopened.close()

        def finish() -> None:
            result.shares = _shares(stream, unique_ids, state)
            result.checks["valid statements clustered"] = \
                valid_arrivals_clustered(stream, statuses)
            result.checks["live labels equal batch DBSCAN"] = \
                labels_match_batch(state)
            result.checks["labels after reopen equal labels before"] = \
                labels_after == labels_before

        result.finish = finish
        return result


# -- batch_table1 -------------------------------------------------------

class BatchTable1:
    """The section-6 study from SQL log to Table-1 rows; then the log
    taken in one statement at a time, and reads of the interests the
    study found."""

    setup = staticmethod(ready.study_config)

    @staticmethod
    def prepare(seed: int) -> int:
        """The study generates its own log from the seed in its
        configuration (see :func:`ready.study_config`)."""
        return seed

    async def warm(self, seed: int, workdir: str) -> None:
        config = await self.setup("", seed)
        small = experiments.CaseStudyConfig(
            workload=WorkloadConfig(n_queries=300, seed=seed),
            content=config.content, sample_size=150, eps=EPS,
            min_pts=MIN_PTS, seed=seed)
        self._probe(experiments.run_case_study(small), 20, Pass())

    def _probe(self, study, reads: int, result: Pass) -> None:
        """Intake of the study's own log, then reads of its interests:
        each read takes one of the log's statements that extracted, in
        turn, and answers the interests nearest to it with their
        suggested SQL (what ``GET /recommend?sql=`` answers)."""
        extractor = AccessAreaExtractor(study.schema)
        interner = pipeline.AccessAreaInterner()
        registry = MetricsRegistry()
        for sql, user in study.workload.log.statements_with_users():
            started = time.perf_counter()
            pipeline.process_log([(sql, user)], extractor,
                                 registry=registry, interner=interner)
            result.book("ingest", time.perf_counter() - started)
            result.attempted += 1
            result.tick()
        unique, weights, inverse = pipeline.dedupe_areas(
            [member.area for member in study.sample])
        labels = [0] * len(unique)
        for position, unique_index in enumerate(inverse):
            labels[unique_index] = study.clustering.labels[position]
        recommender = fitting.fit_recommender(unique, weights, labels,
                                              study.stats, extractor)
        entries = list(study.workload.log)
        extracted = [entries[item.index].sql
                     for item in study.report.extracted]
        for r in range(reads):
            sql = extracted[r % len(extracted)]
            started = time.perf_counter()
            recommender.recommend_for_sql(sql)
            result.book("reads", time.perf_counter() - started)
            result.attempted += 1
            result.tick()

    async def run_pass(self, config, _seed, ledger=None) -> Pass:
        result = Pass(attempted=1)
        result.tick(EDGE_SLICES)
        since = len(result.host)
        started = time.perf_counter()
        with result.sampling():
            study = experiments.run_case_study(config)
        result.book("window", time.perf_counter() - started, since)
        result.tick(EDGE_SLICES)
        result.statements = study.report.total
        self._probe(study, BATCH_READS, result)
        result.finish = lambda: self._finish(study, config, result)
        return result

    def _finish(self, study, config, result: Pass) -> None:
        unique, weights, inverse = pipeline.dedupe_areas(
            [member.area for member in study.sample])
        metric = QueryDistance(study.stats, resolution=config.resolution)
        matrix = compute_matrix(unique, metric, mode="kernel", eps=EPS)
        batch = DBSCAN(eps=EPS, min_pts=MIN_PTS).fit(
            unique, matrix=matrix, weights=weights)
        result.checks["study labels equal batch DBSCAN up to renumbering"] \
            = same_partition(list(study.clustering.labels),
                             pipeline.expand_labels(batch.labels, inverse))
        entries = list(study.workload.log)
        result.checks["only broken statements failed"] = all(
            entries[index].family_id < LogEntry.NOISE
            for index, _kind, _message in study.report.failures)
        areas = {item.index: item.area for item in study.report.extracted}
        ids: dict = {}
        unique_ids = [None if index not in areas
                      else ids.setdefault(areas[index], len(ids))
                      for index in range(len(entries))]
        result.shares = inputs.input_shares(
            [entry.sql for entry in entries], unique_ids,
            [frozenset(area.table_set) for area in ids], 0)
        result.shares["unique_areas_clustered"] = len(unique)


WORKLOADS = {"ingest_unique": IngestUnique, "serve_repeat": ServeRepeat,
             "batch_table1": BatchTable1}
