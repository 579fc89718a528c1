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
  (e.g. a client suddenly emitting a different SQL dialect).
"""

from __future__ import annotations

import copy
import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..algebra.cnf import CNFConversionError
from ..algebra.predicates import ColumnConstantPredicate
from ..obs import get_logger, metrics
from ..schema.statistics import StatisticsCatalog
from ..sqlparser import SqlError, ast
from .area import AccessArea
from .extractor import AccessAreaExtractor

logger = get_logger(__name__)


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

    ``on_event`` is invoked synchronously for each notification; events
    are also retained in :attr:`events` for batch inspection.
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
        self.events: list[StreamEvent] = []
        self.areas: list[AccessArea] = []
        #: per extracted statement (aligned with :attr:`areas`): its
        #: live cluster label, or ``None`` when the area was refused by
        #: the clusterer's exactness precondition.
        self.statement_labels: list[Optional[int]] = []
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
                min_pts=self.cluster_min_pts,
                registry=self.registry or metrics.get_registry())
        self._recent_failures: deque[bool] = deque(maxlen=self.failure_window)
        self._burst_active = False
        registry = self.registry or metrics.get_registry()
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
        """Consume one statement; returns its area or ``None`` on failure."""
        index = self.state.processed
        self.state.processed += 1
        self._statements_total.inc()
        try:
            result = self.extractor.extract(sql)
        except (SqlError, CNFConversionError) as exc:
            self.state.failures += 1
            self._failures_total.inc()
            self._recent_failures.append(True)
            self._check_failure_burst(index, sql, exc)
            return None
        self._recent_failures.append(False)
        self._maybe_rearm_burst()
        # Warmup counts *extracted* statements: parse failures teach the
        # monitor no vocabulary, so they must not burn warmup slots — a
        # noisy prefix would otherwise silently disable novelty
        # suppression learning.
        warmed_up = self.state.extracted >= self.warmup
        self.state.extracted += 1
        self._extracted_total.inc()

        area = result.area
        self.areas.append(area)
        if warmed_up:
            self._notify_novelties(index, sql, area, result.statement)
        self._learn(area, result.statement)
        if self.clusterer is not None:
            self._cluster(index, sql, area)
        return area

    def _cluster(self, index: int, sql: str, area: AccessArea) -> None:
        try:
            update = self.clusterer.add(area)
        except ValueError as exc:
            # Pre-mutation exactness refusal: the area's table set would
            # drop the partition bound to cluster_eps or below.  The
            # clusterer state is untouched; keep monitoring, leave this
            # statement unlabelled.
            logger.warning("incremental clustering refused statement "
                           "#%d: %s", index, exc)
            (self.registry or metrics.get_registry()).counter(
                "repro_incremental_refused_total").inc()
            self.statement_labels.append(None)
            return
        self.statement_labels.append(update.label)
        if update.structure_changed:
            self._emit(
                EventKind.CLUSTER_CHANGED, index,
                f"cluster structure changed: {update.promotions} "
                f"promotions, {update.demotions} demotions, "
                f"{update.merges} merges, {update.splits} splits, "
                f"{update.new_clusters} new clusters "
                f"({self.clusterer.n_clusters} total)", sql)

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

        Returns the statement's live label (``None`` for failed or
        refused arrivals).
        """
        self.state.processed += 1
        self._statements_total.inc()
        if area is None:
            self.state.failures += 1
            self._failures_total.inc()
            self._recent_failures.append(True)
            return None
        self._recent_failures.append(False)
        self.state.extracted += 1
        self._extracted_total.inc()
        self.areas.append(area)
        self._learn(area, None)
        if self.clusterer is None:
            return None
        try:
            update = self.clusterer.add(area)
        except ValueError:
            (self.registry or metrics.get_registry()).counter(
                "repro_incremental_refused_total").inc()
            self.statement_labels.append(None)
            return None
        self.statement_labels.append(update.label)
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
                          statement: Optional[ast.SelectStatement]) -> None:
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
        if statement is not None:
            for feature in _query_features(statement):
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

    def _learn(self, area: AccessArea,
               statement: Optional[ast.SelectStatement]) -> None:
        state = self.state
        state.relations.update(r.lower() for r in area.relations)
        state.relation_sets.add(
            frozenset(r.lower() for r in area.relations))
        for pred in area.cnf.predicates():
            for ref in pred.columns:
                state.columns.add((ref.relation.lower(),
                                   ref.column.lower()))
        if statement is not None:
            state.features.update(_query_features(statement))
        if self.stats is not None:
            self.stats.observe_cnf(area.cnf)

    def _emit(self, kind: EventKind, index: int, detail: str,
              sql: str) -> None:
        event = StreamEvent(kind, index, detail, sql)
        self.events.append(event)
        self._event_counters[kind].inc()
        logger.info("stream event %s at #%d: %s", kind.value, index,
                    detail)
        if self.on_event is not None:
            self.on_event(event)

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> str:
        state = self.state
        counts: dict[EventKind, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        lines = [
            f"statements processed : {state.processed:,}",
            f"areas extracted      : {state.extracted:,} "
            f"({state.extraction_rate:.2%})",
            f"relations seen       : {len(state.relations)}",
            f"columns seen         : {len(state.columns)}",
            f"query features seen  : {len(state.features)}",
            f"events emitted       : {len(self.events)}",
        ]
        if self.clusterer is not None:
            lines.insert(5, "clustering           : "
                         + self.clusterer.summary())
        for kind in EventKind:
            if kind in counts:
                lines.append(f"  {kind.value:<22}: {counts[kind]}")
        return "\n".join(lines)


def _query_features(statement: ast.SelectStatement) -> set[str]:
    """The structural feature tags of one statement."""
    features: set[str] = set()
    if statement.group_by:
        features.add("group-by")
    if statement.having is not None:
        features.add("having")
    if statement.top is not None:
        features.add("top")
    if statement.distinct:
        features.add("distinct")
    if statement.order_by:
        features.add("order-by")
    for item in statement.from_items:
        if _has_outer_join(item):
            features.add("outer-join")
    if statement.where is not None:
        features.update(_condition_features(statement.where))
    return features


def _has_outer_join(item: ast.FromItem) -> bool:
    if isinstance(item, ast.Join):
        if item.join_type in (ast.JoinType.LEFT, ast.JoinType.RIGHT,
                              ast.JoinType.FULL):
            return True
        return _has_outer_join(item.left) or _has_outer_join(item.right)
    return False


def _condition_features(cond: ast.Condition) -> set[str]:
    features: set[str] = set()
    stack = [cond]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.AndCondition, ast.OrCondition)):
            stack.extend(node.children)
        elif isinstance(node, ast.NotCondition):
            stack.append(node.child)
        elif isinstance(node, (ast.Exists, ast.InSubquery,
                               ast.QuantifiedComparison)):
            features.add("nested-subquery")
        elif isinstance(node, ast.InList):
            features.add("in-list")
        elif isinstance(node, ast.Between):
            features.add("between")
        elif isinstance(node, ast.Like):
            features.add("like")
        elif isinstance(node, ast.Comparison):
            if isinstance(node.right, ast.ScalarSubquery) or \
                    isinstance(node.left, ast.ScalarSubquery):
                features.add("nested-subquery")
    return features
