"""The interest service's HTTP surface.

``create_app`` wires an :class:`~repro.service.asgi.App` over one
:class:`~repro.service.state.AppState`:

====== ========================== =====================================
Method Path                       What it serves
====== ========================== =====================================
POST   /queries                   ingest one SQL statement (single
                                  writer; graceful degradation)
GET    /users/{id}/interests      the user's aggregated interest areas
GET    /clusters                  live clusters with weighted sizes
GET    /clusters/{id}             bounds, describing expression,
                                  coverage of one cluster
GET    /recommend                 k nearest interest areas for ``sql``
                                  (popular areas without ``sql``)
GET    /metrics                   Prometheus exposition of the process
                                  registry
GET    /healthz                   liveness + resident-state summary
====== ========================== =====================================

Ingestion is serialized through a single ``asyncio.Lock`` — the
incremental clusterer repairs labels under a one-arrival-at-a-time
invariant — while every read endpoint works off the immutable
:class:`~repro.service.state.ClusterSnapshot`, so reads never block
the writer and never see a half-applied update.

Every request lands in ``repro_service_requests_total{route,method,
code}`` and ``repro_service_request_seconds{route}`` via the app's
observer hook.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..clustering.dbscan import NOISE
from ..obs import export, metrics
from ..sqlparser import SqlError
from .asgi import App, HTTPError, JSONResponse, Request, Response
from .state import AppState, ServiceConfig


def create_app(config: Optional[ServiceConfig] = None,
               state: Optional[AppState] = None,
               registry: Optional[metrics.MetricsRegistry] = None) -> App:
    """Build the ASGI application (and its resident state)."""
    if state is None:
        state = AppState(config, registry=registry)
    reg = state.registry

    def observe(route: str, method: str, status: int,
                seconds: float) -> None:
        reg.counter("repro_service_requests_total", route=route,
                    method=method, code=str(status)).inc()
        reg.histogram("repro_service_request_seconds",
                      route=route).observe(seconds)

    app = App(observer=observe)
    app.state = state
    write_lock = asyncio.Lock()

    @app.post("/queries")
    async def post_query(request: Request):
        payload = request.json()
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HTTPError(400, "field 'sql' must be a non-empty "
                                 "string")
        user = payload.get("user")
        if user is not None and not isinstance(user, str):
            raise HTTPError(400, "field 'user' must be a string")
        async with write_lock:
            outcome = state.ingest(sql, user=user)
        body = {
            "status": outcome.status,
            "index": outcome.index,
            "label": outcome.label,
            "unique_index": outcome.unique_index,
            "n_clusters": state.clusterer.n_clusters,
            "events": list(outcome.events),
        }
        if outcome.error is not None:
            body["error"] = outcome.error
        # Degradation is not an HTTP failure: a refused insert or an
        # unparseable statement leaves the resident state healthy, so
        # both report 200 with an explicit status field.
        return JSONResponse(body, status=200)

    @app.get("/users/{user}/interests")
    async def user_interests(request: Request):
        user = request.path_params["user"]
        if user not in state.users and \
                user not in state.user_unclustered:
            raise HTTPError(404, f"unknown user {user!r}")
        interests = state.user_interests(user)
        return {
            "user": user,
            "interests": [row for row in interests
                          if row["cluster"] != NOISE],
            "noise": next((row for row in interests
                           if row["cluster"] == NOISE), None),
            "unclustered": state.user_unclustered.get(user, 0),
        }

    @app.get("/clusters")
    async def clusters(request: Request):
        snapshot = state.snapshot()
        sizes = snapshot.sizes()
        unique_counts: dict[int, int] = {}
        for label in snapshot.labels:
            unique_counts[label] = unique_counts.get(label, 0) + 1
        rows = [
            {"id": label, "weighted_size": sizes[label],
             "unique_areas": unique_counts[label]}
            for label in sorted(sizes) if label >= 0
        ]
        return {
            "version": snapshot.version,
            "n_clusters": snapshot.n_clusters,
            "clusters": rows,
            "noise": {"weighted_size": sizes.get(NOISE, 0.0),
                      "unique_areas": unique_counts.get(NOISE, 0)},
        }

    @app.get("/clusters/{id}")
    async def cluster_detail(request: Request):
        raw = request.path_params["id"]
        try:
            cluster_id = int(raw)
        except ValueError:
            raise HTTPError(400, f"cluster id must be an integer, "
                                 f"got {raw!r}") from None
        aggregated = state.aggregate(cluster_id)
        if aggregated is None:
            raise HTTPError(404, f"no cluster {cluster_id}")
        return {
            "id": cluster_id,
            "weighted_size": aggregated.cardinality,
            "relations": list(aggregated.relations),
            "bounds": [
                {"column": str(bound.ref),
                 "lo": bound.interval.lo, "hi": bound.interval.hi,
                 "lower_bounded": bound.lower_bounded,
                 "upper_bounded": bound.upper_bounded,
                 "support": bound.support}
                for bound in aggregated.bounds
            ],
            "categorical": [
                {"column": str(cat.ref),
                 "values": sorted(cat.values),
                 "support": cat.support}
                for cat in aggregated.categorical
            ],
            "joins": [str(join) for join in aggregated.joins],
            "description": aggregated.describe(),
            "suggested_sql": aggregated.to_sql(),
            "area_coverage": state.cluster_coverage(aggregated),
        }

    @app.get("/recommend")
    async def recommend(request: Request):
        sql = request.query.get("sql")
        k = _parse_k(request.query.get("k"), state.config.max_k)
        recommender = state.recommender()
        if sql is None:
            recommendations = recommender.popular(k=k)
        else:
            try:
                recommendations = recommender.recommend_for_sql(sql, k=k)
            except SqlError as exc:
                raise HTTPError(422, f"cannot extract an access area: "
                                     f"{exc}") from exc
        return {
            "k": k,
            "sql": sql,
            "n_clusters": recommender.n_clusters,
            "recommendations": [
                {"cluster": rec.aggregated.cluster_id,
                 "distance": rec.distance,
                 "popularity": rec.popularity,
                 "description": rec.aggregated.describe(),
                 "suggested_sql": rec.suggested_sql}
                for rec in recommendations
            ],
        }

    @app.get("/metrics")
    async def prometheus(request: Request):
        return Response(export.to_prometheus(reg.snapshot()),
                        content_type="text/plain; version=0.0.4; "
                                     "charset=utf-8")

    @app.get("/healthz")
    async def healthz(request: Request):
        monitor = state.monitor
        body = {
            "status": "ok",
            # Monotonic, so NTP slews and clock changes can't make a
            # healthy process report negative (or absurd) uptime.
            "uptime_seconds": round(state.uptime, 3),
            "started_at": state.started,
            "backend": state.clusterer.backend_name,
            "eps": state.config.eps,
            "min_pts": state.config.min_pts,
            "ingested": monitor.state.processed,
            "extracted": monitor.state.extracted,
            "failures": monitor.state.failures,
            "intern_pool": len(state.interner),
            "intern_resident": state.interner.resident,
            "unique_areas": state.clusterer.n_unique,
            "n_clusters": state.clusterer.n_clusters,
            "structure_version": state.structure_version,
        }
        if state.store is not None:
            pool = state.store.pool.stats
            body["store"] = {
                "dir": state.config.store_dir,
                "backing": state.interner.backing,
                "max_resident": state.config.max_resident,
                "replayed": state.replayed,
                "journal_length": state.store.journal_length,
                "segment_bytes": state.store.segments.total_bytes(),
                "buffer_pool": {
                    "hit_rate": round(pool.hit_rate, 4),
                    "hits": pool.hits,
                    "misses": pool.misses,
                    "resident_bytes": state.store.pool.resident_bytes,
                },
            }
        return body

    return app


def _parse_k(raw: Optional[str], max_k: int) -> int:
    if raw is None:
        return 5
    try:
        k = int(raw)
    except ValueError:
        raise HTTPError(400, f"k must be an integer, got {raw!r}") \
            from None
    if not 1 <= k <= max_k:
        raise HTTPError(400, f"k must be in [1, {max_k}]")
    return k
