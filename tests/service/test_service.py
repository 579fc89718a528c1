"""The interest service over its resident pipeline state.

The load-bearing checks:

* **Batch parity** — after ingesting a workload through ``POST
  /queries``, the live labels equal a from-scratch weighted
  ``DBSCAN.fit`` over the service's unique areas (same metric, same
  numbering) — the incremental path serves the same answer the batch
  pipeline would.
* **Graceful degradation** — an arrival the block-sparse backend
  refuses (its table set would drop the partition exactness bound to
  ``eps``) returns **200** with ``status: "unclustered"`` and leaves
  the resident state untouched; it never becomes an HTTP error.
* **Concurrent reads** — snapshot-backed GETs interleaved with the
  single writer never see a half-applied update.
"""

import asyncio

import pytest

from repro.algebra.intervals import Interval
from repro.clustering import DBSCAN
from repro.distance import QueryDistance
from repro.obs.metrics import MetricsRegistry
from repro.schema import Column, ColumnType, Relation, Schema
from repro.service import (AppState, ServiceConfig, TestClient,
                           create_app)
from repro.workload import WorkloadConfig, generate_workload


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

    def test_recommend_bad_sql_is_422(self, ingested):
        _, _, client, _ = ingested
        response = client.get("/recommend",
                              params={"sql": "NOT SQL"})
        assert response.status == 422

    def test_healthz(self, ingested):
        _, state, client, _ = ingested
        body = client.get("/healthz").json()
        assert body["status"] == "ok"
        assert body["ingested"] == state.monitor.state.processed
        assert body["n_clusters"] == state.clusterer.n_clusters
        assert body["backend"] == "sparse"

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


class TestRefusalDegradation:
    """eps=0.3 over a 3-relation join world: adding a 4th relation to
    the join drops the table-partition bound to 1 - 3/4 = 0.25 <= eps,
    so the block-sparse layout refuses pre-mutation and ingest
    degrades."""

    @pytest.fixture()
    def join_world(self):
        schema = Schema("joins")
        for name in ("A", "B", "C", "D"):
            schema.add(Relation(name, (
                Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),
                Column("k", ColumnType.INT, Interval(0.0, 1000.0)),)))
        app, state = _service(
            ServiceConfig(eps=0.3, min_pts=2, warmup=0,
                          min_cluster_size=1),
            schema=schema)
        return app, state, TestClient(app)

    def test_refused_arrival_degrades_to_200(self, join_world):
        _, state, client = join_world
        for i in range(3):
            response = client.post("/queries", json={
                "sql": f"SELECT * FROM A JOIN B ON A.k = B.k "
                       f"JOIN C ON B.k = C.k "
                       f"WHERE A.x BETWEEN {10 + i} AND {20 + i}"})
            assert response.json()["status"] == "clustered"
        before = state.clusterer.n_unique
        response = client.post("/queries", json={
            "sql": "SELECT * FROM A JOIN B ON A.k = B.k "
                   "JOIN C ON B.k = C.k JOIN D ON C.k = D.k "
                   "WHERE A.x BETWEEN 10 AND 20"})
        assert response.status == 200
        body = response.json()
        assert body["status"] == "unclustered"
        assert body["label"] is None
        # Pre-mutation refusal: the population is untouched and the
        # next compatible arrival still clusters.
        assert state.clusterer.n_unique == before
        response = client.post("/queries", json={
            "sql": "SELECT * FROM A JOIN B ON A.k = B.k "
                   "JOIN C ON B.k = C.k "
                   "WHERE A.x BETWEEN 12 AND 22"})
        assert response.json()["status"] == "clustered"

    def test_refusals_counted(self, join_world):
        _, state, client = join_world
        client.post("/queries", json={
            "sql": "SELECT * FROM A JOIN B ON A.k = B.k "
                   "JOIN C ON B.k = C.k WHERE A.x < 50"})
        client.post("/queries", json={
            "sql": "SELECT * FROM A JOIN B ON A.k = B.k "
                   "JOIN C ON B.k = C.k JOIN D ON C.k = D.k "
                   "WHERE A.x < 50"})
        text = client.get("/metrics").text
        assert "repro_incremental_refused_total 1" in text
        assert 'repro_service_ingested_total{status="unclustered"} 1' \
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
