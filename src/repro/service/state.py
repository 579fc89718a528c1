"""The service's resident pipeline state.

One :class:`AppState` lives for the whole process and owns everything
the endpoints read or write:

* the :class:`~repro.core.pipeline.AccessAreaInterner` pool (shared,
  immutable area objects with warmed footprint caches);
* a :class:`~repro.core.stream.StreamMonitor` with
  ``cluster_incrementally=True`` — which itself owns the
  :class:`~repro.clustering.incremental.IncrementalDBSCAN` and its
  distance layout (block-sparse or dense, picked by ``eps``);
* a fitted :class:`~repro.recommend.InterestRecommender`, refreshed
  lazily after ``CLUSTER_CHANGED`` events;
* the per-user ledger behind ``GET /users/{id}/interests``.

**Writer serialization.**  All mutation goes through :meth:`ingest`,
and the application calls it under a single ``asyncio.Lock`` — the
incremental clusterer's repair invariants assume one arrival at a
time.  Reads never take that lock: they work off
:class:`ClusterSnapshot`, an immutable copy of the label state that is
rebuilt at most once per mutation (version-stamped) and swapped in
atomically, so a burst of ``GET /clusters`` during heavy ingest serves
consistent answers without stalling the writer.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Optional

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.coverage import area_coverage
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor
from ..core.pipeline import AccessAreaInterner
from ..core.stream import EventKind, StreamEvent, StreamMonitor
from ..obs import get_logger, metrics
from ..recommend import InterestRecommender, fit_recommender
from ..schema import StatisticsCatalog, skyserver_schema
from ..schema.skyserver import CONTENT_BOUNDS
from ..store import open_store
from ..store.codec import fingerprint_digest

logger = get_logger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service process (CLI: ``repro serve``)."""

    #: clustering radius; it also picks the clusterer's layout (see
    #: :class:`~repro.clustering.incremental.IncrementalDBSCAN`).  On
    #: the block-sparse layout an arrival whose table set would drop
    #: the live exactness bound to ``eps`` is refused pre-mutation —
    #: ingest degrades to an ``unclustered`` statement instead of
    #: serving under-reported neighbourhoods.
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
    #: cap on areas held resident by the intern pool (``--max-resident``,
    #: requires ``store_dir``).  Least-recently-interned areas are
    #: evicted to the store; uniqueness accounting is unaffected because
    #: it is judged against the persistent fingerprint index.
    max_resident: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_resident is not None and not self.store_dir:
            raise ValueError("max_resident requires store_dir: evicted "
                             "areas must have a store to come back from")


@dataclass(frozen=True)
class ClusterSnapshot:
    """An immutable view of the label state at one version.

    Read endpoints hold a reference while they render; the writer never
    mutates a published snapshot, it publishes a new one.
    """

    version: int
    areas: tuple[AccessArea, ...]
    weights: tuple[float, ...]
    labels: tuple[int, ...]

    @property
    def n_clusters(self) -> int:
        return len({label for label in self.labels if label >= 0})

    def sizes(self) -> dict[int, float]:
        """Weighted cardinality per cluster label (noise = -1)."""
        out: dict[int, float] = {}
        for label, weight in zip(self.labels, self.weights):
            out[label] = out.get(label, 0.0) + weight
        return out

    def members(self, cluster_id: int
                ) -> tuple[list[AccessArea], list[int]]:
        members: list[AccessArea] = []
        weights: list[int] = []
        for area, weight, label in zip(self.areas, self.weights,
                                       self.labels):
            if label == cluster_id:
                members.append(area)
                weights.append(int(weight))
        return members, weights


@dataclass(frozen=True)
class IngestOutcome:
    """What one ``POST /queries`` did.

    ``status`` mirrors the stream path's graceful degradation:
    ``"clustered"`` (extracted, live label assigned),
    ``"unclustered"`` (extracted, but the block-sparse layout's
    max-radius reservation refused the insert pre-mutation), or ``"failed"``
    (the statement did not extract — tallied, never an HTTP error).
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
        # The recommender must measure with the same normalization the
        # clusterer does, so it gets the same frozen catalog the
        # monitor hands its clusterer (the monitor's own copy keeps
        # widening for out-of-range novelty detection).
        self.frozen_stats = copy.deepcopy(stats)
        self.extractor = AccessAreaExtractor(self.schema)
        self.store = open_store(self.config.store_dir)
        if self.store is not None:
            self.interner = AccessAreaInterner(
                store=self.store,
                max_resident=self.config.max_resident)
        else:
            self.interner = AccessAreaInterner()
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
        self.users: dict[str, dict[AccessArea, int]] = {}
        self.user_unclustered: dict[str, int] = {}
        #: bumped on every mutation; read paths rebuild their snapshot
        #: lazily when it moved.
        self.version = 0
        #: bumped only on CLUSTER_CHANGED — the recommender refresh
        #: trigger (weight-only arrivals keep the fitted model).
        self.structure_version = 0
        self._snapshot = ClusterSnapshot(0, (), (), ())
        self._recommender: Optional[InterestRecommender] = None
        self._recommender_version = -1
        self._ingest_seconds = self.registry.histogram(
            "repro_service_ingest_seconds")
        self._ingest_total = {
            status: self.registry.counter(
                "repro_service_ingested_total", status=status)
            for status in ("clustered", "unclustered", "failed")
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
        statement.  Failed arrivals replay as counter bumps only.
        """
        for entry in self.store.iter_journal():
            digest_hex = entry.get("digest")
            area = None
            if digest_hex:
                area = self.store.get_area(bytes.fromhex(digest_hex))
                if area is None:
                    # Journal entry without its area record: the index
                    # recovery invariant (index ⊆ segments) means this
                    # cannot happen for a record that was durably
                    # published; treat it like a failed arrival rather
                    # than poisoning the whole replay.
                    logger.warning("journal references missing area %s; "
                                   "replaying as failure", digest_hex)
            label = self.monitor.replay(area)
            self.version += 1
            self.replayed += 1
            if area is None:
                continue
            pooled = self.interner.intern(area)
            user = entry.get("user")
            if user:
                if label is None:
                    self.user_unclustered[user] = \
                        self.user_unclustered.get(user, 0) + 1
                else:
                    ledger = self.users.setdefault(user, {})
                    ledger[pooled] = ledger.get(pooled, 0) + 1
        if self.replayed:
            self.structure_version += 1
            logger.info("replayed %d journalled arrivals from %s "
                        "(%d live clusters)", self.replayed,
                        self.config.store_dir,
                        self.clusterer.n_clusters)

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
        """Extract → intern → incremental cluster one statement.

        Must run serialized (the app holds its writer lock around this
        call): the clusterer's local-repair invariants assume arrivals
        mutate one at a time.
        """
        started = time.perf_counter()
        index = self.monitor.state.processed
        self._pending_events.clear()
        area = self.monitor.process(sql)
        events = tuple(str(event) for event in self._pending_events)
        if any(event.kind is EventKind.CLUSTER_CHANGED
               for event in self._pending_events):
            self.structure_version += 1
        self.version += 1
        digest: Optional[bytes] = None
        if area is None:
            outcome = IngestOutcome(
                status="failed", index=index, events=events,
                error=_last_failure_detail(self.monitor, sql)
                or "statement did not extract")
        else:
            pooled = self.interner.intern(area)
            digest = fingerprint_digest(pooled)
            label = self.monitor.statement_labels[-1]
            if label is None:
                outcome = IngestOutcome(status="unclustered",
                                        index=index, events=events)
            else:
                outcome = IngestOutcome(
                    status="clustered", index=index, label=label,
                    unique_index=self.clusterer.index_of(pooled),
                    events=events)
            if user:
                ledger = self.users.setdefault(user, {})
                if label is None:
                    self.user_unclustered[user] = \
                        self.user_unclustered.get(user, 0) + 1
                else:
                    ledger[pooled] = ledger.get(pooled, 0) + 1
        if self.store is not None:
            # The journal is the restart contract: one entry per
            # arrival, in order.  Failed statements are journalled too
            # (digest None) so replay reproduces the processed/failure
            # counters, not just the happy path.
            self.store.append_journal({
                "digest": digest.hex() if digest else None,
                "user": user,
            })
            self.store.record(self.registry)
        self._ingest_total[outcome.status].inc()
        self._ingest_seconds.observe(time.perf_counter() - started)
        self.registry.gauge("repro_service_intern_pool").set(
            len(self.interner))
        self.interner.record(self.registry)
        return outcome

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
                min_cluster_size=self.config.min_cluster_size)
            self._recommender_version = self.structure_version
            self.registry.counter(
                "repro_service_recommender_refreshes_total").inc()
        return self._recommender

    def aggregate(self, cluster_id: int) -> Optional[AggregatedArea]:
        """The aggregated access area of one live cluster."""
        members, weights = self.snapshot().members(cluster_id)
        if not members:
            return None
        return aggregate_cluster(cluster_id, members,
                                 self.frozen_stats, weights=weights)

    def cluster_coverage(self, aggregated: AggregatedArea) -> float:
        return area_coverage(aggregated, self.frozen_stats)

    def user_interests(self, user: str) -> list[dict]:
        """Per-user aggregated areas, grouped by current live label."""
        ledger = self.users.get(user, {})
        by_label: dict[int, tuple[list[AccessArea], list[int]]] = {}
        labels = self.snapshot().labels
        for area, count in ledger.items():
            unique_index = self.clusterer.index_of(area)
            label = (labels[unique_index]
                     if unique_index is not None else -1)
            members, weights = by_label.setdefault(label, ([], []))
            members.append(area)
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


def _last_failure_detail(monitor: StreamMonitor,
                         sql: str) -> Optional[str]:
    """The monitor logs failure kinds through counters, not a list;
    re-extract cheaply to report the exception text to the caller."""
    from ..algebra.cnf import CNFConversionError
    from ..sqlparser import SqlError
    try:
        monitor.extractor.extract(sql)
    except (SqlError, CNFConversionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
