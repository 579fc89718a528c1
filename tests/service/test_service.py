"""The interest service over its resident pipeline state.

The load-bearing checks:

* **Batch parity** — after ingesting a workload through ``POST
  /queries``, the live labels equal a from-scratch weighted
  ``DBSCAN.fit`` over the service's unique areas (same metric, same
  numbering) — the incremental path serves the same answer the batch
  pipeline would.
* **Joins across partitions** — an arrival whose table set lowers the
  partition exactness bound to ``eps`` or below is clustered like any
  other, with the label batch DBSCAN gives it.
* **Concurrent reads** — snapshot-backed GETs interleaved with the
  single writer never see a half-applied update.
* **Kept answers** — ``GET /clusters`` and ``GET /clusters/{id}``
  answer from state kept across reads; after every write they equal an
  answer rendered from scratch from the clusterer's own lists.
"""

import asyncio
import json

import pytest

import repro.service.state as state_module
from repro.algebra.intervals import Interval
from repro.clustering import DBSCAN, NOISE, aggregate_cluster, area_coverage
from repro.distance import QueryDistance
from repro.obs.metrics import MetricsRegistry
from repro.recommend import fit_recommender
from repro.schema import Column, ColumnType, Relation, Schema
from repro.service import (AppState, ServiceConfig, TestClient,
                           create_app)
from repro.workload import WorkloadConfig, generate_workload

from .test_store_restart import OFF_THE_LINE


def _service(config: ServiceConfig, schema=None):
    registry = MetricsRegistry()
    state = AppState(config, schema=schema, registry=registry)
    return create_app(state=state), state


@pytest.fixture(scope="module")
def ingested():
    """A service that has swallowed the seed synthetic workload."""
    app, state = _service(ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                                        min_cluster_size=2))
    client = TestClient(app)
    workload = generate_workload(WorkloadConfig(n_queries=150, seed=7))
    outcomes = []
    for sql, user in workload.log.statements_with_users():
        response = client.post("/queries", json={"sql": sql,
                                                 "user": user})
        assert response.status == 200
        outcomes.append(response.json())
    return app, state, client, outcomes


class TestIngest:
    def test_statements_cluster(self, ingested):
        _, _, _, outcomes = ingested
        statuses = {o["status"] for o in outcomes}
        assert "clustered" in statuses
        clustered = [o for o in outcomes if o["status"] == "clustered"]
        assert all(isinstance(o["label"], int) for o in clustered)
        assert all(isinstance(o["unique_index"], int)
                   for o in clustered)

    def test_labels_match_batch_dbscan(self, ingested):
        _, state, _, _ = ingested
        clusterer = state.clusterer
        metric = QueryDistance(state.frozen_stats)
        want = DBSCAN(eps=state.config.eps,
                      min_pts=state.config.min_pts).fit(
            clusterer.areas(), distance=metric,
            weights=clusterer.weights())
        assert clusterer.labels() == list(want.labels)

    def test_missing_sql_field_is_400(self, ingested):
        _, _, client, _ = ingested
        assert client.post("/queries", json={}).status == 400
        assert client.post("/queries",
                           json={"sql": "   "}).status == 400
        assert client.post("/queries",
                           json={"sql": "SELECT 1",
                                 "user": 7}).status == 400

    def test_unparseable_statement_degrades(self, ingested):
        _, _, client, _ = ingested
        response = client.post("/queries",
                               json={"sql": "CLEARLY NOT SQL"})
        assert response.status == 200
        body = response.json()
        assert body["status"] == "failed"
        assert "error" in body

    def test_failed_statement_is_extracted_once(self, monkeypatch):
        from repro.core.extractor import AccessAreaExtractor
        calls = []
        extract = AccessAreaExtractor.extract

        def counting(extractor, sql):
            calls.append(sql)
            return extract(extractor, sql)

        monkeypatch.setattr(AccessAreaExtractor, "extract", counting)
        _, state = _service(ServiceConfig(warmup=5))
        outcome = state.ingest("CLEARLY NOT SQL")
        assert outcome.status == "failed"
        assert outcome.error.startswith("ParseError: ")
        assert calls == ["CLEARLY NOT SQL"]
        # A repeat answers from the monitor's memo of the refusal.
        again = state.ingest("CLEARLY NOT SQL")
        assert calls == ["CLEARLY NOT SQL"]
        assert (again.status, again.error) == ("failed", outcome.error)

    def test_count_past_the_float_range_fails_as_a_parse_error(self,
                                                                ingested):
        _, _, client, _ = ingested
        response = client.post(
            "/queries", json={"sql": "SELECT TOP 1e400 ra FROM PhotoObj"})
        assert response.status == 200
        body = response.json()
        assert body["status"] == "failed"
        assert body["error"].startswith("ParseError: TOP needs a finite")

    def test_deeply_nested_statement_degrades(self, ingested):
        # 400 levels is past the parser's nesting limit: an ordinary
        # failed statement, not a 5xx from exhausted recursion.
        _, state, client, _ = ingested
        processed = state.monitor.state.processed
        sql = ("SELECT * FROM PhotoObj WHERE " + "(" * 400 + "ra > 1"
               + ")" * 400)
        response = client.post("/queries", json={"sql": sql})
        assert response.status == 200
        body = response.json()
        assert body["status"] == "failed"
        assert "nests deeper than" in body["error"]
        assert state.monitor.state.processed == processed + 1


class TestReads:
    def test_clusters_listing(self, ingested):
        _, state, client, _ = ingested
        body = client.get("/clusters").json()
        assert body["n_clusters"] == state.clusterer.n_clusters
        total_unique = (sum(r["unique_areas"] for r in body["clusters"])
                        + body["noise"]["unique_areas"])
        assert total_unique == state.clusterer.n_unique
        weighted = (sum(r["weighted_size"] for r in body["clusters"])
                    + body["noise"]["weighted_size"])
        assert weighted == pytest.approx(sum(
            state.clusterer.weights()))

    def test_cluster_detail(self, ingested):
        _, _, client, _ = ingested
        first = client.get("/clusters").json()["clusters"][0]
        body = client.get(f"/clusters/{first['id']}").json()
        assert body["weighted_size"] == pytest.approx(
            first["weighted_size"])
        assert body["description"]
        assert body["suggested_sql"].startswith("SELECT")
        assert 0.0 <= body["area_coverage"] <= 1.0

    def test_cluster_detail_errors(self, ingested):
        _, _, client, _ = ingested
        assert client.get("/clusters/not-an-int").status == 400
        assert client.get("/clusters/99999").status == 404
        # Only the spelling /clusters lists names a cluster: int() would
        # read each of these as an id.
        for raw, decoded in (("1_0", "1_0"), ("0010", "0010"),
                             ("%2B3", "+3"), ("%207", " 7"),
                             ("%D9%A1", "\u0661"), ("-0", "-0"),
                             ("01", "01"), ("1%20", "1 ")):
            response = client.get(f"/clusters/{raw}")
            assert response.status == 400, raw
            assert response.json() == {
                "error": f"cluster id must be an integer, got {decoded!r}"}
        # Noise is listed apart from the clusters, not as cluster -1.
        assert client.get("/clusters").json()["noise"]["unique_areas"]
        response = client.get("/clusters/-1")
        assert response.status == 404
        assert response.json() == {"error": "no cluster -1"}

    def test_user_interests(self, ingested):
        _, state, client, _ = ingested
        user = max(state.users, key=lambda u: sum(
            state.users[u].values()))
        body = client.get(f"/users/{user}/interests").json()
        assert body["user"] == user
        rows = body["interests"]
        assert rows == sorted(rows, key=lambda r: r["queries"],
                              reverse=True)
        assert all(r["cluster"] >= 0 for r in rows)

    def test_unknown_user_is_404(self, ingested):
        _, _, client, _ = ingested
        assert client.get("/users/nobody-ever/interests").status == 404

    def test_recommend_for_sql(self, ingested):
        _, _, client, _ = ingested
        response = client.get("/recommend", params={
            "sql": "SELECT * FROM PhotoObjAll "
                   "WHERE ra BETWEEN 100 AND 120",
            "k": "3"})
        assert response.status == 200
        rows = response.json()["recommendations"]
        assert rows
        distances = [r["distance"] for r in rows]
        assert distances == sorted(distances)

    def test_recommend_popular_without_sql(self, ingested):
        _, _, client, _ = ingested
        rows = client.get("/recommend").json()["recommendations"]
        assert rows
        # The NaN regression: popular rows must serialize distance as
        # JSON null, not the string "NaN" json.dumps would emit.
        assert all(r["distance"] is None for r in rows)
        popularity = [r["popularity"] for r in rows]
        assert popularity == sorted(popularity, reverse=True)

    def test_recommend_k_validation(self, ingested):
        _, _, client, _ = ingested
        assert client.get("/recommend",
                          params={"k": "0"}).status == 400
        assert client.get("/recommend",
                          params={"k": "999"}).status == 400
        assert client.get("/recommend",
                          params={"k": "x"}).status == 400
        for raw in ("1_0", "\u0663", "+3", " 3", "03", "3 ", "-0"):
            response = client.get("/recommend", params={"k": raw})
            assert response.status == 400, raw
            assert response.json() == {
                "error": f"k must be an integer, got {raw!r}"}
        assert client.get("/recommend", params={"k": "3"}).status == 200

    def test_recommend_bad_sql_is_422(self, ingested):
        _, _, client, _ = ingested
        response = client.get("/recommend",
                              params={"sql": "NOT SQL"})
        assert response.status == 422

    def test_recommend_count_past_the_float_range_is_422(self, ingested):
        _, _, client, _ = ingested
        for sql in ("SELECT TOP 1e400 ra FROM PhotoObj",
                    "SELECT ra FROM PhotoObj LIMIT 1e999"):
            response = client.get("/recommend", params={"sql": sql})
            assert response.status == 422
            assert "finite number" in response.json()["error"]

    def test_recommend_unplaceable_constant_is_422(self, ingested):
        _, _, client, _ = ingested
        for sql in OFF_THE_LINE:
            response = client.get("/recommend", params={"sql": sql})
            assert response.status == 422
            assert "number line" in response.json()["error"]

    def test_healthz(self, ingested):
        _, state, client, _ = ingested
        body = client.get("/healthz").json()
        assert body["status"] == "ok"
        assert body["ingested"] == state.monitor.state.processed
        assert body["n_clusters"] == state.clusterer.n_clusters

    def test_metrics_exposition(self, ingested):
        _, _, client, _ = ingested
        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        text = response.text
        assert "repro_service_requests_total" in text
        assert "repro_service_request_seconds" in text
        assert "repro_service_ingested_total" in text
        assert "repro_incremental_arrivals_total" in text


def test_points_at_infinity_leave_every_read_answering():
    """``ra = 1e400`` sent five times by one user into a live population
    is refused at extraction, so no cluster forms around a point at
    infinity: every cluster, every user's interests and every
    ``/recommend`` still answer 200."""
    app, state = _service(ServiceConfig(eps=0.12, min_pts=3))
    client = TestClient(app)
    workload = generate_workload(WorkloadConfig(n_queries=60, seed=3))
    statements = workload.log.statements_with_users()
    for sql, user in statements + [(statements[0][0], "n")]:
        assert client.post("/queries", json={"sql": sql, "user": user}
                           ).status == 200
    for _ in range(5):
        answer = client.post("/queries", json={
            "sql": "SELECT ra FROM PhotoObj WHERE ra = 1e400",
            "user": "n"}).json()
        assert answer["status"] == "failed"
        assert "number line" in answer["error"]
    clusters = client.get("/clusters").json()["clusters"]
    assert clusters
    reads = [f"/clusters/{row['id']}" for row in clusters]
    reads += [f"/users/{user}/interests" for user in state.users]
    assert "/users/n/interests" in reads
    for path in reads + ["/recommend"]:
        assert client.get(path).status == 200, path
    for sql, _user in statements[:10]:
        assert client.get("/recommend", params={"sql": sql}).status \
            in (200, 422)


class TestOnePool:
    """The clusterer's fingerprint index is the only resident area
    pool: a repeated arrival leaves no area object behind."""

    def test_repeat_stream_holds_one_area_per_unique(self):
        import gc
        import random

        from repro.core.area import AccessArea

        workload = generate_workload(WorkloadConfig(n_queries=150, seed=3))
        pool = list(dict.fromkeys(workload.log.statements_with_users()))
        rng = random.Random(0)
        weights = [1.0 / (rank + 1) for rank in range(len(pool))]
        stream = rng.choices(pool, weights=weights, k=800)

        def live_areas() -> int:
            gc.collect()
            return sum(isinstance(obj, AccessArea)
                       for obj in gc.get_objects())

        before = live_areas()
        _, state = _service(ServiceConfig(eps=0.12, min_pts=3,
                                          warmup=10))
        for sql, user in stream:
            state.ingest(sql, user=user)
        assert state.clusterer.arrivals == state.monitor.state.extracted
        assert state.clusterer.interned_hits \
            == state.clusterer.arrivals - state.clusterer.n_unique
        assert live_areas() - before <= state.clusterer.n_unique


class TestResidentGrowth:
    """Resident state grows with unique areas, not with arrivals: once a
    log passed again and again no longer changes the clustering, more
    passes leave no memory behind in the program."""

    def test_saturated_repeats_hold_no_memory(self):
        import math
        import os
        import tracemalloc

        import repro
        from repro.obs.metrics import DEFAULT_RESERVOIR_SIZE

        arrivals = generate_workload(WorkloadConfig(
            n_queries=120, seed=3)).log.statements_with_users()
        _, state = _service(ServiceConfig(eps=0.12, min_pts=3, warmup=10))

        def changes() -> int:
            """One pass of the log; how many arrivals changed the
            clustering's structure."""
            return sum(event.startswith("[cluster-changed]")
                       for sql, user in arrivals
                       for event in state.ingest(sql, user=user).events)

        # A histogram keeps its first DEFAULT_RESERVOIR_SIZE
        # observations, so the warmup fills those too.
        passes = 1
        while changes() or passes * len(arrivals) < DEFAULT_RESERVOIR_SIZE:
            passes += 1
            assert passes <= 20, "the clustering never saturated"
        under_repro = [tracemalloc.Filter(
            True, os.path.join(os.path.dirname(repro.__file__), "*"))]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(under_repro)
            for _ in range(math.ceil(2400 / len(arrivals))):
                changes()
            after = tracemalloc.take_snapshot().filter_traces(under_repro)
        finally:
            tracemalloc.stop()
        growth = sum(stat.size_diff
                     for stat in after.compare_to(before, "filename"))
        assert growth <= 4096


class TestTextMemo:
    """The monitor's extraction memo changes no answer: a memoizing
    service against one that memoizes nothing (``MEMO_CHARS = 0``)."""

    @staticmethod
    def _run(arrivals):
        registry = MetricsRegistry()
        state = AppState(ServiceConfig(eps=0.12, min_pts=3, warmup=5),
                         registry=registry)
        outcomes = [state.ingest(sql, user=user) for sql, user in arrivals]
        counters = [c for c in registry.snapshot()["counters"]
                    if c["name"].startswith("repro_stream_")]
        return (outcomes, state.monitor.state, state.clusterer.labels(),
                state.clusterer.weights(), state.users, counters)

    def test_memo_answers_as_extraction_does(self, monkeypatch):
        import random

        from repro.core import stream
        from repro.sqlparser.parser import MAX_NESTING

        workload = generate_workload(WorkloadConfig(n_queries=150, seed=3))
        pool = list(dict.fromkeys(workload.log.statements_with_users()))
        nested = ("SELECT * FROM PhotoObj WHERE " + "(" * (MAX_NESTING + 1)
                  + "ra > 1" + ")" * (MAX_NESTING + 1))
        # Broken statements rank high, so the failure-burst latch trips
        # and re-arms on held refusals as well.
        pool[2:2] = [("CLEARLY NOT SQL", "mallory"), (nested, "mallory"),
                     (OFF_THE_LINE[0], "eve")]
        rng = random.Random(5)
        weights = [1.0 / (rank + 1) for rank in range(len(pool))]
        arrivals = []
        for sql, user in rng.choices(pool, weights=weights, k=600):
            if rng.random() < 0.2:
                # A respelled repeat: another text, the same area.
                sql += " " * rng.randint(1, 3)
            arrivals.append((sql, user))
        with monkeypatch.context() as patch:
            patch.setattr(stream, "MEMO_CHARS", 0)
            reference = self._run(arrivals)
        assert any("failure-burst" in event
                   for outcome in reference[0] for event in outcome.events)
        assert self._run(arrivals) == reference


class TestJoinAcrossPartitions:
    """eps=0.4 over a 3-relation join world: adding a 4th relation to
    the join lowers the table-partition bound to 1 - 3/4 = 0.25 <= eps,
    so the four-table area's neighbourhood reaches the three-table
    partition and the area takes that partition's cluster."""

    JOIN3 = ("SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON B.k = C.k "
             "WHERE A.x BETWEEN {} AND {}")
    JOIN4 = ("SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON B.k = C.k "
             "JOIN D ON C.k = D.k WHERE A.x BETWEEN 10 AND 20")

    @pytest.fixture()
    def join_world(self):
        schema = Schema("joins")
        for name in ("A", "B", "C", "D"):
            schema.add(Relation(name, (
                Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),
                Column("k", ColumnType.INT, Interval(0.0, 1000.0)),)))
        app, state = _service(
            ServiceConfig(eps=0.4, min_pts=2, warmup=0,
                          min_cluster_size=1),
            schema=schema)
        return app, state, TestClient(app)

    def test_four_table_join_is_clustered(self, join_world):
        _, state, client = join_world
        for i in range(3):
            response = client.post("/queries", json={
                "sql": self.JOIN3.format(10 + i, 20 + i)})
            assert response.json()["status"] == "clustered"
        response = client.post("/queries", json={"sql": self.JOIN4})
        assert response.status == 200
        body = response.json()
        assert body["status"] == "clustered"
        clusterer = state.clusterer
        batch = DBSCAN(eps=0.4, min_pts=2).fit(
            clusterer.areas(), distance=QueryDistance(state.frozen_stats),
            weights=clusterer.weights())
        assert clusterer.labels() == list(batch.labels)
        assert body["label"] == batch.labels[body["unique_index"]] == 0

    def test_four_table_join_counted_as_clustered(self, join_world):
        _, _, client = join_world
        client.post("/queries", json={"sql": self.JOIN3.format(0, 50)})
        client.post("/queries", json={"sql": self.JOIN4})
        text = client.get("/metrics").text
        assert 'repro_service_ingested_total{status="clustered"} 2' \
            in text


class TestConcurrency:
    def test_reads_interleaved_with_writer(self):
        app, state = _service(ServiceConfig(eps=0.12, min_pts=3,
                                            warmup=0,
                                            min_cluster_size=2))
        client = TestClient(app)
        workload = generate_workload(WorkloadConfig(n_queries=60,
                                                    seed=3))
        statements = workload.log.statements_with_users()

        async def writer():
            for sql, user in statements:
                response = await client.apost(
                    "/queries", json={"sql": sql, "user": user})
                assert response.status == 200
                await asyncio.sleep(0)

        async def reader(path):
            seen = []
            for _ in range(40):
                response = await client.aget(path)
                assert response.status == 200
                seen.append(response.json())
                await asyncio.sleep(0)
            return seen

        async def run():
            return await asyncio.gather(
                writer(), reader("/clusters"), reader("/healthz"))

        _, cluster_reads, _ = asyncio.run(run())
        # Every observed snapshot is internally consistent: the listed
        # clusters are exactly the distinct non-noise labels.
        for body in cluster_reads:
            assert len(body["clusters"]) == body["n_clusters"]
        versions = [body["version"] for body in cluster_reads]
        assert versions == sorted(versions)
        # And the writer really ran underneath those reads.
        assert state.monitor.state.processed == len(statements)

    def test_recommender_refresh_is_lazy(self):
        app, state = _service(ServiceConfig(eps=0.12, min_pts=2,
                                            warmup=0,
                                            min_cluster_size=1))
        client = TestClient(app)
        for i in range(4):
            client.post("/queries", json={
                "sql": f"SELECT * FROM PhotoObjAll WHERE ra BETWEEN "
                       f"{100 + i} AND {120 + i}"})
        first = state.recommender()
        assert state.recommender() is first  # cached between changes
        for i in range(4):
            client.post("/queries", json={
                "sql": f"SELECT * FROM SpecObjAll WHERE z BETWEEN "
                       f"0.{i} AND 0.{i + 2}"})
        assert state.recommender() is not first  # CLUSTER_CHANGED


class TestRecommenderRefit:
    def test_reusing_refit_equals_fresh_fit(self):
        """After every CLUSTER_CHANGED of a replayed stream, the refit
        that takes over the previous fit's blocks equals a fit from
        scratch: medoids, popular rows and rankings."""
        _, state = _service(ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                                          min_cluster_size=2))
        statements = generate_workload(WorkloadConfig(
            n_queries=160, seed=5)).log.statements_with_users()
        # A second pass repeats the first: weight-only arrivals between
        # the structure changes.
        stream = statements + statements[:80]
        probes = []
        refits = taken_over = 0
        for sql, user in stream:
            structure = state.structure_version
            outcome = state.ingest(sql, user)
            if outcome.status != "failed" and len(probes) < 6:
                probes.append(state.extractor.extract(sql).area)
            if state.structure_version == structure:
                continue
            previous = state._recommender
            live = state.recommender()
            snapshot = state.snapshot()
            fresh = fit_recommender(
                snapshot.areas, [int(w) for w in snapshot.weights],
                snapshot.labels, state.frozen_stats, state.extractor,
                resolution=state.config.resolution,
                min_cluster_size=state.config.min_cluster_size,
                previous=None)
            refits += 1
            if previous is not None:
                old = {id(c.block) for c in previous._clusters}
                taken_over += sum(id(c.block) in old
                                  for c in live._clusters
                                  if c.block is not None)
            assert [c.medoid for c in live._clusters] == \
                [c.medoid for c in fresh._clusters]
            assert [(r.popularity, r.suggested_sql, r.medoid)
                    for r in live.popular(k=100)] == \
                [(r.popularity, r.suggested_sql, r.medoid)
                 for r in fresh.popular(k=100)]
            for probe in probes:
                assert [(r.distance, r.popularity, r.suggested_sql)
                        for r in live.recommend(probe, k=100)] == \
                    [(r.distance, r.popularity, r.suggested_sql)
                     for r in fresh.recommend(probe, k=100)]
        assert refits > 5 and taken_over > 0


def _fresh_listing(state) -> dict:
    """``GET /clusters`` walked from the clusterer's lists."""
    clusterer = state.clusterer
    sizes: dict[int, float] = {}
    unique: dict[int, int] = {}
    for label, weight in zip(clusterer.labels(), clusterer.weights()):
        sizes[label] = sizes.get(label, 0.0) + weight
        unique[label] = unique.get(label, 0) + 1
    rows = [{"id": label, "weighted_size": sizes[label],
             "unique_areas": unique[label]}
            for label in sorted(sizes) if label >= 0]
    return {"version": state.version, "n_clusters": len(rows),
            "clusters": rows,
            "noise": {"weighted_size": sizes.get(NOISE, 0.0),
                      "unique_areas": unique.get(NOISE, 0)}}


def _fresh_detail(state, cluster_id: int) -> dict:
    """``GET /clusters/{id}`` aggregated and rendered from the
    clusterer's lists."""
    clusterer = state.clusterer
    members, weights = [], []
    for area, weight, label in zip(clusterer.areas(), clusterer.weights(),
                                   clusterer.labels()):
        if label == cluster_id:
            members.append(area)
            weights.append(int(weight))
    aggregated = aggregate_cluster(cluster_id, members, state.frozen_stats,
                                   weights=weights)
    return {
        "id": cluster_id,
        "weighted_size": aggregated.cardinality,
        "relations": list(aggregated.relations),
        "bounds": [{"column": str(bound.ref), "lo": bound.interval.lo,
                    "hi": bound.interval.hi,
                    "lower_bounded": bound.lower_bounded,
                    "upper_bounded": bound.upper_bounded,
                    "support": bound.support}
                   for bound in aggregated.bounds],
        "categorical": [{"column": str(cat.ref),
                         "values": sorted(cat.values),
                         "support": cat.support}
                        for cat in aggregated.categorical],
        "joins": [str(join) for join in aggregated.joins],
        "description": aggregated.describe(),
        "suggested_sql": aggregated.to_sql(),
        "area_coverage": area_coverage(aggregated, state.frozen_stats),
    }


def _encoded(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


class TestKeptAnswers:
    def test_kept_answers_equal_fresh_ones(self, monkeypatch):
        """After every POST of a log and its first half again
        (weight-only arrivals, promotions, merges, failed statements),
        every cluster route answers byte for byte what a render from
        scratch gives, and a read the writes did not touch aggregates
        nothing."""
        aggregated = []
        aggregate = state_module.aggregate_cluster
        monkeypatch.setattr(
            state_module, "aggregate_cluster",
            lambda *args, **kwargs: (aggregated.append(args[0])
                                     or aggregate(*args, **kwargs)))
        app, state = _service(ServiceConfig(eps=0.12, min_pts=3,
                                            warmup=10,
                                            min_cluster_size=2))
        client = TestClient(app)
        statements = generate_workload(WorkloadConfig(
            n_queries=40, seed=3)).log.statements_with_users()
        statements.insert(40, ("CLEARLY NOT SQL", "u0"))

        async def detail_reads(ids) -> tuple[list[bytes], int]:
            calls = len(aggregated)
            bodies = []
            for cluster_id in ids:
                response = await client.aget(f"/clusters/{cluster_id}")
                assert response.status == 200
                bodies.append(response.body)
            return bodies, len(aggregated) - calls

        async def drive() -> int:
            failed = 0
            for sql, user in statements + statements[:len(statements) // 2]:
                outcome = (await client.apost(
                    "/queries", json={"sql": sql, "user": user})).json()
                listing = await client.aget("/clusters")
                assert listing.body == _encoded(_fresh_listing(state))
                ids = [row["id"] for row in listing.json()["clusters"]]
                bodies, calls = await detail_reads(ids)
                assert bodies == [_encoded(_fresh_detail(state, cluster_id))
                                  for cluster_id in ids]
                if outcome["status"] == "failed" and ids:
                    # Nothing moved: the kept answers are restamped.
                    failed += 1
                    assert calls == 0
                # A second read at an unchanged version renders nothing.
                assert (await client.aget("/clusters")).body == listing.body
                assert await detail_reads(ids) == (bodies, 0)
            return failed

        assert asyncio.run(drive()) >= 2
        counter = state.registry.counter
        assert counter("repro_incremental_hits_total").value > 0
        assert counter("repro_incremental_promotions_total").value > 0
        assert counter("repro_incremental_merges_total").value > 0
