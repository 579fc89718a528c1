"""The service's resident pipeline state.

One :class:`AppState` lives for the whole process and owns everything
the endpoints read or write:

* a :class:`~repro.core.stream.StreamMonitor` with
  ``cluster_incrementally=True`` — which itself owns the
  :class:`~repro.clustering.incremental.IncrementalDBSCAN` and its
  block-sparse distance layout, exact at every ``eps``.  The
  clusterer's fingerprint index is the one resident area pool: each
  unique area is held once, by its first arrival, and everything else
  refers to it by unique index;
* with ``store_dir``, the :class:`~repro.store.AreaStore` that areas
  and the ingest journal are written through to;
* a fitted :class:`~repro.recommend.InterestRecommender`, refreshed
  lazily after ``CLUSTER_CHANGED`` events;
* the per-user ledger behind ``GET /users/{id}/interests``, keyed by
  unique index.

**Writer serialization.**  All mutation goes through :meth:`ingest`,
and the application calls it under a single ``asyncio.Lock`` — the
incremental clusterer's repair invariants assume one arrival at a
time.  Reads never take that lock: they work off
:class:`ClusterSnapshot`, an immutable copy of the label state that is
rebuilt at most once per mutation (version-stamped) and swapped in
atomically, so a burst of ``GET /clusters`` during heavy ingest serves
consistent answers without stalling the writer.

**Reads render once per version.**  A snapshot groups its labels on
the first read that needs them and renders the ``GET /clusters`` body
once.  ``GET /clusters/{id}`` keeps one answer per cluster id with the
version and the key it was rendered at — the cluster's member unique
indices and their counts.  The members are the clusterer's append-only
areas, the counts its weights and the catalog is frozen, so an answer
is a function of its key: a read at a newer version whose key is
unchanged serves the kept answer, and only a cluster a write touched is
aggregated again.  Ingest computes none of this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.coverage import area_coverage
from ..clustering.dbscan import NOISE
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor, refuse_unplaceable
from ..core.stream import EventKind, StreamEvent, StreamMonitor
from ..obs import get_logger, metrics
from ..recommend import InterestRecommender, fit_recommender
from ..schema import StatisticsCatalog, skyserver_schema
from ..schema.skyserver import CONTENT_BOUNDS
from ..sqlparser import UnsupportedStatementError
from ..store import open_store
from ..store.codec import fingerprint_digest, held_digest

logger = get_logger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service process (CLI: ``repro serve``)."""

    #: clustering radius (see
    #: :class:`~repro.clustering.incremental.IncrementalDBSCAN`).
    eps: float = 0.12
    min_pts: int = 5
    warmup: int = 100
    resolution: float = 0.05
    min_cluster_size: int = 5
    #: cap on ``GET /recommend``'s ``k``.
    max_k: int = 50
    #: directory of the persistent :class:`~repro.store.AreaStore`
    #: (``--store-dir``).  When set, every ingest is journalled and the
    #: resident state is rebuilt from the journal on restart — the same
    #: areas re-enter the clusterer in arrival order, with zero SQL
    #: re-extraction, reproducing the pre-restart labels bitwise.
    #: ``None`` = in-memory only; state dies with the process.
    store_dir: Optional[str] = None


@dataclass(frozen=True)
class ClusterSnapshot:
    """An immutable view of the label state at one version.

    Read endpoints hold a reference while they render; the writer never
    mutates a published snapshot, it publishes a new one.  The first
    read that needs it groups the labels in one pass — each label's
    member unique indices in index order and its weighted size — and
    :attr:`listing`, the ``GET /clusters`` body, is rendered from that
    once.  Both live as long as the snapshot, so the next version
    replaces them.
    """

    version: int
    areas: tuple[AccessArea, ...]
    weights: tuple[float, ...]
    labels: tuple[int, ...]

    @cached_property
    def _grouped(self) -> tuple[dict[int, list[int]], dict[int, float]]:
        """Per label (noise = -1): member unique indices, weighted size."""
        members: dict[int, list[int]] = {}
        sizes: dict[int, float] = {}
        weights = self.weights
        for i, label in enumerate(self.labels):
            held = members.get(label)
            if held is None:
                members[label] = [i]
                sizes[label] = weights[i]
            else:
                held.append(i)
                sizes[label] += weights[i]
        return members, sizes

    def sizes(self) -> dict[int, float]:
        """Weighted cardinality per cluster label (noise = -1)."""
        return dict(self._grouped[1])

    def member_indices(self, label: int) -> tuple[int, ...]:
        """The unique indices labelled ``label``, in index order."""
        return tuple(self._grouped[0].get(label, ()))

    def members(self, cluster_id: int
                ) -> tuple[list[AccessArea], list[int]]:
        indices = self._grouped[0].get(cluster_id, ())
        return ([self.areas[i] for i in indices],
                [int(self.weights[i]) for i in indices])

    @cached_property
    def listing(self) -> dict:
        """The ``GET /clusters`` body at this version, one dict shared by
        every read of it: callers must not mutate it."""
        members, sizes = self._grouped
        rows = [
            {"id": label, "weighted_size": sizes[label],
             "unique_areas": len(members[label])}
            for label in sorted(sizes) if label >= 0
        ]
        return {
            "version": self.version,
            "n_clusters": len(rows),
            "clusters": rows,
            "noise": {"weighted_size": sizes.get(NOISE, 0.0),
                      "unique_areas": len(members.get(NOISE, ()))},
        }


@dataclass(frozen=True)
class IngestOutcome:
    """What one ``POST /queries`` did.

    ``status`` is ``"clustered"`` (extracted, live label assigned) or
    ``"failed"`` (the statement did not extract — tallied, never an
    HTTP error).
    """

    status: str
    index: int
    label: Optional[int] = None
    unique_index: Optional[int] = None
    error: Optional[str] = None
    events: tuple[str, ...] = ()


class AppState:
    """Everything resident; see the module docstring."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 schema=None,
                 registry: Optional[metrics.MetricsRegistry] = None
                 ) -> None:
        self.config = config or ServiceConfig()
        self.schema = schema or skyserver_schema()
        self.registry = registry or metrics.get_registry()
        #: wall-clock birth stamp — display only.  Uptime is computed
        #: from the monotonic stamp below: ``time.time()`` jumps under
        #: NTP slews and manual clock changes, so a wall-clock
        #: difference can report negative or wildly wrong uptime.
        self.started = time.time()
        self._started_monotonic = time.monotonic()
        stats = StatisticsCatalog.from_exact_content(
            self.schema, CONTENT_BOUNDS if schema is None else {})
        self.extractor = AccessAreaExtractor(self.schema)
        self.store = open_store(self.config.store_dir)
        self._pending_events: list[StreamEvent] = []
        self.monitor = StreamMonitor(
            self.extractor, stats=stats,
            on_event=self._pending_events.append,
            warmup=self.config.warmup,
            cluster_incrementally=True,
            cluster_eps=self.config.eps,
            cluster_min_pts=self.config.min_pts,
            registry=self.registry)
        self.clusterer = self.monitor.clusterer
        #: the catalog the clusterer measures with, frozen when the
        #: monitor enabled it (the monitor's own keeps widening for
        #: out-of-range novelty detection); aggregation and the
        #: recommender measure with it too.
        self.frozen_stats = self.clusterer.metric.stats
        #: user → {unique index: clustered arrivals}.
        self.users: dict[str, dict[int, int]] = {}
        #: bumped on every mutation; read paths rebuild their snapshot
        #: lazily when it moved.
        self.version = 0
        #: bumped only on CLUSTER_CHANGED — the recommender refresh
        #: trigger (weight-only arrivals keep the fitted model).
        self.structure_version = 0
        self._snapshot = ClusterSnapshot(0, (), (), ())
        #: cluster id → (version, key, body) of its last ``GET
        #: /clusters/{id}`` answer; see :meth:`cluster_detail`.
        self._details: dict[int, tuple[int, tuple, dict]] = {}
        self._recommender: Optional[InterestRecommender] = None
        self._recommender_version = -1
        self._ingest_seconds = self.registry.histogram(
            "repro_service_ingest_seconds")
        self._ingest_total = {
            status: self.registry.counter(
                "repro_service_ingested_total", status=status)
            for status in ("clustered", "failed")
        }
        #: arrivals restored from the store's journal at startup.
        self.replayed = 0
        if self.store is not None:
            self._replay_journal()

    def _replay_journal(self) -> None:
        """Rebuild the resident state from the store's ingest journal.

        Each entry re-enters the monitor through
        :meth:`StreamMonitor.replay` — the persisted area is fetched by
        fingerprint digest and fed to the incremental clusterer in the
        original arrival order, so the restored labels are bitwise
        identical to the pre-restart state without parsing a single
        statement.  Failed arrivals replay as counter bumps only.  Each
        stored area is fetched once, by its first journal entry (see
        :meth:`_stored_area`).
        """
        fetched: dict[str, Optional[AccessArea]] = {}
        for entry in self.store.iter_journal():
            digest_hex = entry.get("digest")
            area = None
            if digest_hex:
                if digest_hex not in fetched:
                    fetched[digest_hex] = self._stored_area(digest_hex)
                area = fetched[digest_hex]
            self.monitor.replay(area)
            self.version += 1
            self.replayed += 1
            if area is not None:
                self._book(entry.get("user"), area)
        if self.replayed:
            self.structure_version += 1
            logger.info("replayed %d journalled arrivals from %s "
                        "(%d live clusters)", self.replayed,
                        self.config.store_dir,
                        self.clusterer.n_clusters)

    def _stored_area(self, digest_hex: str) -> Optional[AccessArea]:
        """The stored area a journal entry names, or ``None`` when the
        entry replays as a failed arrival."""
        area = self.store.get_area(bytes.fromhex(digest_hex))
        if area is None:
            # Journal entry without its area record: the index recovery
            # invariant (index ⊆ segments) means this cannot happen for
            # a record that was durably published; treat it like a
            # failed arrival rather than poisoning the whole replay.
            logger.warning("journal references missing area %s; "
                           "replaying as failure", digest_hex)
            return None
        try:
            # A store written before extraction refused a constant off
            # the number line (``ra = 1e400``) may hold one; it replays
            # as the failure the statement is now.
            refuse_unplaceable(area.cnf.predicates())
        except UnsupportedStatementError as exc:
            logger.warning("journalled area %s is refused now (%s); "
                           "replaying as failure", digest_hex, exc)
            return None
        return area

    @property
    def uptime(self) -> float:
        """Seconds since construction, immune to wall-clock jumps."""
        return time.monotonic() - self._started_monotonic

    def close(self) -> None:
        """Checkpoint and release the store (no-op when memory-only)."""
        if self.store is not None:
            self.store.close()

    # -- ingestion (the single writer) --------------------------------

    def ingest(self, sql: str, user: Optional[str] = None
               ) -> IngestOutcome:
        """Extract → incremental cluster one statement.

        Must run serialized (the app holds its writer lock around this
        call): the clusterer's local-repair invariants assume arrivals
        mutate one at a time.
        """
        started = time.perf_counter()
        index = self.monitor.state.processed
        self._pending_events.clear()
        held = self.clusterer.n_unique
        area = self.monitor.process(sql)
        events = tuple(str(event) for event in self._pending_events)
        if any(event.kind is EventKind.CLUSTER_CHANGED
               for event in self._pending_events):
            self.structure_version += 1
        self.version += 1
        digest: Optional[bytes] = None
        if area is None:
            exc = self.monitor.last_error
            outcome = IngestOutcome(
                status="failed", index=index, events=events,
                error=f"{type(exc).__name__}: {exc}")
        else:
            label = self.monitor.last_label
            unique_index = self._book(user, area)
            if self.store is not None:
                if unique_index < held:
                    # A repeat: the store already holds this area, and
                    # its pooled area keeps the digest it is held under.
                    digest = (held_digest(self.clusterer.area(unique_index))
                              or fingerprint_digest(area))
                else:
                    digest = self.store.append_area(area)
            outcome = IngestOutcome(
                status="clustered", index=index, label=label,
                unique_index=unique_index, events=events)
        if self.store is not None:
            # The journal is the restart contract: one entry per
            # arrival, in order.  Failed statements are journalled too
            # (digest None) so replay reproduces the processed/failure
            # counters, not just the happy path.
            self.store.append_journal({
                "digest": digest.hex() if digest else None,
                "user": user,
            })
        self._ingest_total[outcome.status].inc()
        self._ingest_seconds.observe(time.perf_counter() - started)
        return outcome

    def _book(self, user: Optional[str], area: AccessArea) -> int:
        """Book one clustered arrival under ``user``; returns its unique
        index."""
        unique_index = self.clusterer.index_of(area)
        if user:
            ledger = self.users.setdefault(user, {})
            ledger[unique_index] = ledger.get(unique_index, 0) + 1
        return unique_index

    # -- lock-free reads ----------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        """The current immutable label state (rebuilt lazily)."""
        if self._snapshot.version != self.version:
            clusterer = self.clusterer
            self._snapshot = ClusterSnapshot(
                version=self.version,
                areas=tuple(clusterer.areas()),
                weights=tuple(clusterer.weights()),
                labels=tuple(clusterer.labels()),
            )
        return self._snapshot

    def recommender(self) -> InterestRecommender:
        """The fitted recommender, refreshed after CLUSTER_CHANGED."""
        if (self._recommender is None
                or self._recommender_version != self.structure_version):
            snapshot = self.snapshot()
            self._recommender = fit_recommender(
                snapshot.areas, [int(w) for w in snapshot.weights],
                snapshot.labels, self.frozen_stats, self.extractor,
                resolution=self.config.resolution,
                min_cluster_size=self.config.min_cluster_size,
                previous=self._recommender)
            self._recommender_version = self.structure_version
            self.registry.counter(
                "repro_service_recommender_refreshes_total").inc()
        return self._recommender

    def aggregate(self, cluster_id: int) -> Optional[AggregatedArea]:
        """The aggregated access area of one live cluster; ``None`` for
        noise and for an id that is not a live cluster."""
        if cluster_id < 0:
            return None
        members, weights = self.snapshot().members(cluster_id)
        if not members:
            return None
        return aggregate_cluster(cluster_id, members,
                                 self.frozen_stats, weights=weights)

    def cluster_detail(self, cluster_id: int) -> Optional[dict]:
        """The ``GET /clusters/{id}`` body of one live cluster, or
        ``None`` (see :meth:`aggregate`).

        The answer is kept with the version and the key — member unique
        indices and their counts — it was rendered at: the same version
        serves it, the same key at a newer version serves and restamps
        it, and anything else renders it afresh.  Every read of a kept
        answer gets the same dict: callers must not mutate it.
        """
        snapshot = self.snapshot()
        kept = self._details.get(cluster_id)
        if kept is not None and kept[0] == snapshot.version:
            return kept[2]
        indices = snapshot.member_indices(cluster_id)
        key = (indices, tuple(int(snapshot.weights[i]) for i in indices))
        if kept is not None and kept[1] == key:
            body = kept[2]
        else:
            aggregated = self.aggregate(cluster_id)
            if aggregated is None:
                self._details.pop(cluster_id, None)
                return None
            body = _detail_body(aggregated,
                                area_coverage(aggregated,
                                              self.frozen_stats))
        self._details[cluster_id] = (snapshot.version, key, body)
        return body

    def user_interests(self, user: str) -> list[dict]:
        """Per-user aggregated areas, grouped by current live label."""
        ledger = self.users.get(user, {})
        by_label: dict[int, tuple[list[AccessArea], list[int]]] = {}
        snapshot = self.snapshot()
        for unique_index, count in ledger.items():
            members, weights = by_label.setdefault(
                snapshot.labels[unique_index], ([], []))
            members.append(snapshot.areas[unique_index])
            weights.append(count)
        out = []
        for label in sorted(by_label):
            members, weights = by_label[label]
            aggregated = aggregate_cluster(label, members,
                                           self.frozen_stats,
                                           weights=weights)
            out.append({
                "cluster": label,
                "queries": sum(weights),
                "description": aggregated.describe(),
                "suggested_sql": aggregated.to_sql(),
            })
        out.sort(key=lambda row: row["queries"], reverse=True)
        return out


def _detail_body(aggregated: AggregatedArea, coverage: float) -> dict:
    """One cluster's bounds, describing expression and coverage."""
    return {
        "id": aggregated.cluster_id,
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
        "area_coverage": coverage,
    }
