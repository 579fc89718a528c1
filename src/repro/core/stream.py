"""Streaming extraction with change detection (Section 4).

The paper notes that "it is also possible to extract the information from
an incoming stream of logged queries, to detect changes in this data
stream and to notify the system operator about the occurrence of new
predicates and query types".  This module implements that operator view:

* :class:`StreamMonitor` consumes statements one by one, extracts access
  areas incrementally, and keeps the statistics catalog up to date;
* novelty events fire on first-seen relations, columns, relation
  combinations, query-type features (aggregation, nesting, outer joins),
  and constants outside the current ``access(a)`` range;
* a sliding failure-rate window flags bursts of unparseable statements
  (e.g. a client suddenly emitting a different SQL dialect);
* a text seen before skips extraction: an access area depends only on
  the statement and the schema, never on the data, and SQL traffic is
  dominated by programs that re-issue the same statements, so the
  monitor remembers what each recent text extracted to (the area or
  the typed refusal), within :data:`MEMO_CHARS` characters of text.
"""

from __future__ import annotations

import copy
import enum
import math
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..algebra.cnf import CNFConversionError
from ..algebra.predicates import ColumnConstantPredicate
from ..obs import get_logger, metrics
from ..schema.statistics import StatisticsCatalog
from ..sqlparser import SqlError
from .area import AccessArea
from .extractor import AccessAreaExtractor

logger = get_logger(__name__)

#: characters of statement text the extraction memo holds; the least
#: recently used text is evicted first, and a longer text is never held.
#: It is a budget of characters, not entries, because one POST may carry
#: megabytes; at a typical 90-character statement it holds ~3,000 texts.
MEMO_CHARS = 1 << 18


class EventKind(enum.Enum):
    """Operator-notification categories."""

    NEW_RELATION = "new-relation"
    NEW_COLUMN = "new-column"
    NEW_RELATION_SET = "new-relation-set"
    NEW_QUERY_FEATURE = "new-query-feature"
    OUT_OF_RANGE_CONSTANT = "out-of-range-constant"
    FAILURE_BURST = "failure-burst"
    CLUSTER_CHANGED = "cluster-changed"


@dataclass(frozen=True)
class StreamEvent:
    """One operator notification."""

    kind: EventKind
    index: int  # position in the stream
    detail: str
    sql: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] #{self.index}: {self.detail}"


#: Structural features whose first occurrence is notified.
_FEATURES = (
    "group-by", "having", "nested-subquery", "outer-join", "top",
    "distinct", "in-list", "between", "like", "order-by",
)


@dataclass
class StreamState:
    """What the monitor has seen so far."""

    processed: int = 0
    extracted: int = 0
    failures: int = 0
    relations: set[str] = field(default_factory=set)
    columns: set[tuple[str, str]] = field(default_factory=set)
    relation_sets: set[frozenset[str]] = field(default_factory=set)
    features: set[str] = field(default_factory=set)

    @property
    def extraction_rate(self) -> float:
        if self.processed == 0:
            return 0.0
        return self.extracted / self.processed


@dataclass
class StreamMonitor:
    """Incremental access-area extraction with novelty notifications.

    ``on_event`` is invoked synchronously for each notification; the
    monitor itself keeps only a count per kind (see :meth:`summary`).
    ``warmup`` suppresses the notification flood while the vocabulary of
    an unfamiliar log is still being learned.
    """

    extractor: AccessAreaExtractor
    stats: Optional[StatisticsCatalog] = None
    on_event: Optional[Callable[[StreamEvent], None]] = None
    warmup: int = 100
    failure_window: int = 50
    failure_burst_threshold: float = 0.2
    #: relative margin before an out-of-range constant is notified —
    #: constants that merely nudge the running max are routine widening,
    #: not an anomaly.
    out_of_range_slack: float = 0.05
    #: metrics sink; ``None`` → the process-wide default registry.
    registry: Optional[metrics.MetricsRegistry] = None
    #: maintain live cluster labels over the extracted areas
    #: (:class:`~repro.clustering.incremental.IncrementalDBSCAN`);
    #: requires :attr:`stats`.
    cluster_incrementally: bool = False
    cluster_eps: float = 0.15
    cluster_min_pts: int = 5

    def __post_init__(self) -> None:
        self.state = StreamState()
        self._event_counts: Counter[EventKind] = Counter()
        #: the latest arrival's live cluster label; ``None`` when it
        #: failed extraction or the monitor does not cluster.
        self.last_label: Optional[int] = None
        #: what the latest failed statement raised.
        self.last_error: Optional[Exception] = None
        #: statement text → what extracting it gave: the area (the
        #: clusterer's pooled one once clustered) or the typed refusal;
        #: least recently used first, :data:`MEMO_CHARS` characters.
        self._memo: OrderedDict[str, AccessArea | Exception] = \
            OrderedDict()
        self._memo_chars = 0
        registry = self.registry or metrics.get_registry()
        self.clusterer = None
        if self.cluster_incrementally:
            if self.stats is None:
                raise ValueError(
                    "cluster_incrementally=True requires a statistics "
                    "catalog (the distance metric needs access ranges)")
            from ..clustering.incremental import IncrementalDBSCAN
            from ..distance import QueryDistance
            # The clusterer gets a *frozen* copy of the catalog: the
            # monitor keeps widening access(a) as statements arrive
            # (out-of-range detection needs that), but the metric's
            # normalization must stay fixed or distances of
            # already-inserted rows would silently drift.
            frozen = copy.deepcopy(self.stats)
            self.clusterer = IncrementalDBSCAN(
                QueryDistance(frozen), eps=self.cluster_eps,
                min_pts=self.cluster_min_pts, registry=registry)
        self._recent_failures: deque[bool] = deque(maxlen=self.failure_window)
        self._burst_active = False
        self._statements_total = registry.counter(
            "repro_stream_statements_total")
        self._extracted_total = registry.counter(
            "repro_stream_extracted_total")
        self._failures_total = registry.counter(
            "repro_stream_failures_total")
        self._event_counters = {
            kind: registry.counter("repro_stream_events_total",
                                   kind=kind.value)
            for kind in EventKind
        }

    # -- ingestion ---------------------------------------------------------

    def process(self, sql: str) -> Optional[AccessArea]:
        """Consume one statement; returns its area or ``None`` on failure.

        A text still in the memo skips extraction and, when it
        extracted, novelty detection and learning too: its first arrival
        taught the monitor its relations, columns, relation set and query
        features and widened ``access(a)`` over its constants, and that
        state only grows, so no novelty can fire for it again.  Counters,
        the failure-burst window, :attr:`last_error` and clustering run
        for every arrival.
        """
        index = self.state.processed
        self.state.processed += 1
        self._statements_total.inc()
        self.last_label = None
        held = self._memo.get(sql)
        if held is None:
            return self._process_new(index, sql)
        self._memo.move_to_end(sql)
        if isinstance(held, Exception):
            self._fail(index, sql, held)
            return None
        self._count_extracted()
        if self.clusterer is not None:
            self._cluster(index, sql, held)
        return held

    def _process_new(self, index: int, sql: str) -> Optional[AccessArea]:
        try:
            result = self.extractor.extract(sql)
        except (SqlError, CNFConversionError) as exc:
            self._remember(sql, exc)
            self._fail(index, sql, exc)
            return None
        except Exception as exc:
            # Backstop behind the typed refusals.  Extraction is pure,
            # so a fault in it fails this arrival alone and leaves the
            # counters and the journal numbering consistent.  It is not
            # remembered: a transient fault must not stick to the text.
            logger.exception("extraction of statement #%d raised", index)
            self._fail(index, sql, exc)
            return None
        warmed_up = self._count_extracted()
        area = result.area
        features = result.features
        if warmed_up:
            self._notify_novelties(index, sql, area, features)
        self._learn(area, features)
        if self.clusterer is not None:
            # Hold the pooled area, so a respelled text's own object
            # dies with this arrival.
            area = self.clusterer.area(self._cluster(index, sql, area))
        self._remember(sql, area)
        return area

    def _count_extracted(self) -> bool:
        """Tally one extracted arrival; whether warmup was over."""
        self._recent_failures.append(False)
        self._maybe_rearm_burst()
        # Warmup counts *extracted* statements: parse failures teach the
        # monitor no vocabulary, so they must not burn warmup slots — a
        # noisy prefix would otherwise silently disable novelty
        # suppression learning.
        warmed_up = self.state.extracted >= self.warmup
        self.state.extracted += 1
        self._extracted_total.inc()
        return warmed_up

    def _fail(self, index: int, sql: str, exc: Exception) -> None:
        self.last_error = exc
        self.state.failures += 1
        self._failures_total.inc()
        self._recent_failures.append(True)
        self._check_failure_burst(index, sql, exc)

    def _remember(self, sql: str, held: AccessArea | Exception) -> None:
        """Hold what ``sql`` extracted to, evicting least recently used
        texts until it fits in :data:`MEMO_CHARS`."""
        size = len(sql)
        if size > MEMO_CHARS:
            return
        if isinstance(held, Exception):
            # A held refusal must not pin the frames it was raised in.
            link = held
            while link is not None:
                link.__traceback__ = None
                link = link.__cause__ or link.__context__
        memo = self._memo
        while self._memo_chars + size > MEMO_CHARS:
            evicted, _ = memo.popitem(last=False)
            self._memo_chars -= len(evicted)
        memo[sql] = held
        self._memo_chars += size

    def _cluster(self, index: int, sql: str, area: AccessArea) -> int:
        """Add ``area`` to the clusterer; returns its unique index."""
        update = self.clusterer.add(area)
        self.last_label = update.label
        if update.structure_changed:
            self._emit(
                EventKind.CLUSTER_CHANGED, index,
                f"cluster structure changed: {update.promotions} "
                f"promotions, {update.merges} merges, "
                f"{update.new_clusters} new clusters "
                f"({self.clusterer.n_clusters} total)", sql)
        return update.index

    def replay(self, area: Optional[AccessArea]) -> Optional[int]:
        """Re-apply one previously processed arrival without SQL work.

        The service's restart path: areas come back from the store's
        ingest journal in arrival order and re-enter the monitor here —
        no parsing, no CNF conversion.  ``None`` replays a statement
        that failed extraction (tallied, nothing learned).  Determinism
        of :class:`~repro.clustering.incremental.IncrementalDBSCAN`
        under arrival order makes the resulting labels bitwise
        identical to the pre-restart state.

        Novelty notifications and failure-burst tracking are
        suppressed — those events already fired when the statement
        first arrived.  Vocabulary learned from areas (relations,
        columns, relation sets, access ranges) is fully restored;
        AST-only query features are not (the journal stores areas, not
        parse trees), so a NEW_QUERY_FEATURE may re-notify once after
        a restart.

        Returns the statement's live label (``None`` for a failed
        arrival or a monitor that does not cluster).
        """
        self.state.processed += 1
        self._statements_total.inc()
        self.last_label = None
        if area is None:
            self.state.failures += 1
            self._failures_total.inc()
            self._recent_failures.append(True)
            return None
        self._recent_failures.append(False)
        self.state.extracted += 1
        self._extracted_total.inc()
        self._learn(area, ())
        if self.clusterer is None:
            return None
        update = self.clusterer.add(area)
        self.last_label = update.label
        return update.label

    def process_many(self, statements: Iterable[str]) -> list[AccessArea]:
        out = []
        for sql in statements:
            area = self.process(sql)
            if area is not None:
                out.append(area)
        return out

    # -- novelty detection ---------------------------------------------------

    def _notify_novelties(self, index: int, sql: str, area: AccessArea,
                          features: Iterable[str]) -> None:
        for relation in area.relations:
            if relation.lower() not in self.state.relations:
                self._emit(EventKind.NEW_RELATION, index,
                           f"first query touching relation {relation}",
                           sql)
        relation_set = frozenset(r.lower() for r in area.relations)
        if (len(relation_set) > 1
                and relation_set not in self.state.relation_sets):
            self._emit(EventKind.NEW_RELATION_SET, index,
                       "first query combining "
                       + " + ".join(sorted(relation_set)), sql)

        for pred in area.cnf.predicates():
            for ref in pred.columns:
                key = (ref.relation.lower(), ref.column.lower())
                if key not in self.state.columns:
                    self._emit(EventKind.NEW_COLUMN, index,
                               f"first predicate on {ref}", sql)
        if self.stats is not None:
            self._check_out_of_range(index, sql, area)
        for feature in features:
            if feature not in self.state.features:
                self._emit(EventKind.NEW_QUERY_FEATURE, index,
                           f"first {feature} query", sql)

    def _check_out_of_range(self, index: int, sql: str,
                            area: AccessArea) -> None:
        assert self.stats is not None
        for pred in area.cnf.predicates():
            if not isinstance(pred, ColumnConstantPredicate) \
                    or not pred.is_numeric:
                continue
            access = self.stats.access_interval(pred.ref)
            if not math.isfinite(access.width):
                # Unknown column fell back to the widest float range
                # (whose width already overflows to inf): nothing can
                # be out of range, and carrying the inf into the
                # margin arithmetic risks inf - inf = nan comparisons.
                continue
            value = float(pred.value)
            # The relative margin alone breaks down when the access
            # interval is a single point (width 0, e.g. a column only
            # ever queried with one constant): every different constant
            # would be flagged.  Floor the width at the column's
            # declared domain, so "slack" always means a fraction of a
            # real value range.
            width = max(access.width, self._domain_width(pred.ref))
            margin = self.out_of_range_slack * max(width, 0.0)
            if value < access.lo - margin or value > access.hi + margin:
                self._emit(
                    EventKind.OUT_OF_RANGE_CONSTANT, index,
                    f"{pred} outside access({pred.ref}) = {access}", sql)

    def _domain_width(self, ref) -> float:
        """Finite declared-domain width of ``ref``'s column (0.0 when
        the column or its domain bounds are unknown)."""
        assert self.stats is not None
        try:
            domain = self.stats.schema.column(
                ref.relation, ref.column).effective_domain
        except (KeyError, TypeError):
            return 0.0
        width = domain.width
        return width if math.isfinite(width) else 0.0

    def _check_failure_burst(self, index: int, sql: str,
                             exc: Exception) -> None:
        window = self._recent_failures
        # A short stream that is mostly unparseable should still alarm:
        # fire once half the window has been observed rather than
        # waiting for failure_window statements that may never come.
        minimum = max(1, self.failure_window // 2)
        if len(window) < minimum or self._burst_active:
            return
        rate = sum(window) / len(window)
        if rate >= self.failure_burst_threshold:
            self._burst_active = True
            self._emit(EventKind.FAILURE_BURST, index,
                       f"{rate:.0%} of the last {len(window)} statements "
                       f"failed to parse (latest: {exc})", sql)

    def _maybe_rearm_burst(self) -> None:
        """Hysteresis on the burst latch.

        Re-arming on any single successful parse would make a burst with
        interleaved successes (e.g. an alternating fail/success stream)
        emit one FAILURE_BURST per failure.  Instead the latch only
        releases once the *window* failure rate has dropped back below
        the threshold — one notification per burst episode.
        """
        if not self._burst_active:
            return
        window = self._recent_failures
        if not window:
            return
        if sum(window) / len(window) < self.failure_burst_threshold:
            self._burst_active = False

    # -- learning -----------------------------------------------------------------

    def _learn(self, area: AccessArea, features: Iterable[str]) -> None:
        state = self.state
        state.relations.update(r.lower() for r in area.relations)
        state.relation_sets.add(
            frozenset(r.lower() for r in area.relations))
        for pred in area.cnf.predicates():
            for ref in pred.columns:
                state.columns.add((ref.relation.lower(),
                                   ref.column.lower()))
        state.features.update(features)
        if self.stats is not None:
            self.stats.observe_cnf(area.cnf)

    def _emit(self, kind: EventKind, index: int, detail: str,
              sql: str) -> None:
        event = StreamEvent(kind, index, detail, sql)
        self._event_counts[kind] += 1
        self._event_counters[kind].inc()
        logger.info("stream event %s at #%d: %s", kind.value, index,
                    detail)
        if self.on_event is not None:
            self.on_event(event)

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> str:
        state = self.state
        counts = self._event_counts
        lines = [
            f"statements processed : {state.processed:,}",
            f"areas extracted      : {state.extracted:,} "
            f"({state.extraction_rate:.2%})",
            f"relations seen       : {len(state.relations)}",
            f"columns seen         : {len(state.columns)}",
            f"query features seen  : {len(state.features)}",
            f"events emitted       : {sum(counts.values())}",
        ]
        if self.clusterer is not None:
            lines.insert(5, "clustering           : "
                         + self.clusterer.summary())
        for kind in EventKind:
            if kind in counts:
                lines.append(f"  {kind.value:<22}: {counts[kind]}")
        return "\n".join(lines)
