"""Batch processing of a query log (Section 6.1 / 6.6).

Runs the extractor over many statements, collecting the extraction-rate
taxonomy the paper reports (parse errors, unsupported statements, CNF
blow-ups) and per-stage timing distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Iterable, Optional, Sequence

from ..algebra.cnf import CNFConversionError
from ..obs import get_logger, metrics, trace
from ..obs.metrics import Histogram
from ..sqlparser import (LexError, ParseError, UnsupportedStatementError)
from .area import AccessArea
from .extractor import AccessAreaExtractor, StageTimings

logger = get_logger(__name__)

_STAGES = ("parse", "extract", "cnf", "consolidate")


@dataclass
class InternStats:
    """Outcome of interning a population of access areas.

    ``pool_size`` unique areas absorbed ``hits + pool_size`` probes; the
    ``dedup_ratio`` (source areas per unique area) is the factor by
    which downstream O(n²) distance work shrinks to O(u²)."""

    pool_size: int = 0
    hits: int = 0

    @property
    def probes(self) -> int:
        return self.pool_size + self.hits

    @property
    def hit_rate(self) -> float:
        if not self.probes:
            return 0.0
        return self.hits / self.probes

    @property
    def dedup_ratio(self) -> float:
        """Source areas per unique area (≥ 1.0; 1.0 = nothing repeated)."""
        if not self.pool_size:
            return 1.0
        return self.probes / self.pool_size


class AccessAreaInterner:
    """Canonical-fingerprint intern pool for :class:`AccessArea`.

    SkyServer-style logs are dominated by bot- and template-generated
    repeats of the same statement, so most extracted areas are exact
    duplicates at the access-area level.  The pool maps each area to its
    first-seen representative via the canonical ``AccessArea`` identity
    (order-insensitive CNF fingerprint), so logically identical areas —
    regardless of clause/predicate arrival order or literal spelling —
    collapse to one shared, immutable object whose footprint caches are
    computed once.

    This is the batch path's pool (:func:`process_log`,
    :func:`dedupe_areas`): a plain first-seen ``dict``.  The service
    pools through its clusterer's fingerprint index instead (see
    :class:`~repro.service.state.AppState`).
    """

    def __init__(self) -> None:
        self._pool: dict[AccessArea, AccessArea] = {}
        self.hits = 0
        self._recorded: dict[str, float] = {}

    def intern(self, area: AccessArea) -> AccessArea:
        """The pooled representative of ``area`` (``area`` itself when
        its fingerprint is new)."""
        found = self._pool.get(area)
        if found is not None:
            self.hits += 1
            return found
        self._pool[area] = area
        return area

    def __len__(self) -> int:
        """Unique fingerprints seen."""
        return len(self._pool)

    def __contains__(self, area: AccessArea) -> bool:
        return area in self._pool

    def areas(self) -> list[AccessArea]:
        """The unique representatives in first-seen order."""
        return list(self._pool.values())

    def stats(self) -> InternStats:
        return InternStats(pool_size=len(self), hits=self.hits)

    def record(self, registry: metrics.MetricsRegistry) -> None:
        """Fold pool state into a metrics registry (``repro_intern_*``).

        Counter recording is **delta-based**: only movement since the
        previous call is added, so recording the same pool again (one
        pool shared across several logs) never double-counts.  Gauges
        are plain sets and were never at risk.
        """
        registry.gauge("repro_intern_pool_size").set(len(self))
        metrics.record_counter_deltas(registry, self._recorded, (
            ("repro_intern_hits_total", self.hits),
            ("repro_intern_misses_total", len(self))))
        if len(self):
            registry.gauge("repro_intern_dedup_ratio").set(
                self.stats().dedup_ratio)


def dedupe_areas(areas: Sequence[AccessArea],
                 interner: Optional[AccessAreaInterner] = None,
                 ) -> tuple[list[AccessArea], list[int], list[int]]:
    """Collapse ``areas`` to ``(unique, weights, inverse)``.

    ``unique`` holds the representatives in first-occurrence order (so
    clustering scan order — and therefore cluster numbering — matches
    the non-deduplicated population), ``weights[u]`` counts how many
    source areas map to ``unique[u]``, and ``inverse[i]`` is the unique
    index of source area ``i`` — the expansion map of
    :func:`expand_labels`.
    """
    if interner is None:
        interner = AccessAreaInterner()
    unique: list[AccessArea] = []
    weights: list[int] = []
    inverse: list[int] = []
    position: dict[AccessArea, int] = {}
    for area in areas:
        pooled = interner.intern(area)
        index = position.get(pooled)
        if index is None:
            index = len(unique)
            position[pooled] = index
            unique.append(pooled)
            weights.append(0)
        weights[index] += 1
        inverse.append(index)
    return unique, weights, inverse


def expand_labels(labels: Sequence[int],
                  inverse: Sequence[int]) -> list[int]:
    """Map per-unique-area cluster labels back to source query order."""
    return [labels[index] for index in inverse]


class StageTimingSummary:
    """Per-stage timing distribution across a log.

    Backed by one :class:`~repro.obs.metrics.Histogram`, so minimum and
    maximum go through the same symmetric accumulator (an empty summary
    reports both as ``0.0``, never ``inf``, keeping exported reports
    finite and parseable) and quantiles (:meth:`quantile`, :attr:`p50`
    / :attr:`p95` / :attr:`p99`) come for free.
    """

    __slots__ = ("_histogram",)

    def __init__(self, histogram: Optional[Histogram] = None) -> None:
        self._histogram = histogram or Histogram("stage_seconds")

    def add(self, value: float) -> None:
        self._histogram.observe(value)

    @property
    def count(self) -> int:
        return self._histogram.count

    @property
    def minimum(self) -> float:
        return self._histogram.minimum

    @property
    def maximum(self) -> float:
        return self._histogram.maximum

    @property
    def total(self) -> float:
        return self._histogram.total

    @property
    def mean(self) -> float:
        return self._histogram.mean

    def quantile(self, q: float) -> float:
        return self._histogram.quantile(q)

    @property
    def p50(self) -> float:
        return self._histogram.quantile(0.50)

    @property
    def p95(self) -> float:
        return self._histogram.quantile(0.95)

    @property
    def p99(self) -> float:
        return self._histogram.quantile(0.99)

    def __repr__(self) -> str:
        return (f"StageTimingSummary(count={self.count}, "
                f"min={self.minimum:.6f}, mean={self.mean:.6f}, "
                f"max={self.maximum:.6f})")


@dataclass
class ExtractedQuery:
    """One successfully processed log entry."""

    index: int
    sql: str
    area: AccessArea
    user: Optional[str] = None


@dataclass
class LogProcessingReport:
    """Outcome of processing a whole log."""

    total: int = 0
    extracted: list[ExtractedQuery] = field(default_factory=list)
    parse_errors: int = 0
    lex_errors: int = 0
    unsupported_statements: int = 0
    cnf_failures: int = 0
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    stage_timings: dict[str, StageTimingSummary] = field(
        default_factory=lambda: {stage: StageTimingSummary()
                                 for stage in _STAGES})
    #: the access-area intern pool
    interner: AccessAreaInterner = field(
        default_factory=AccessAreaInterner)
    #: continuation lines folded into multi-line statements upstream
    #: (e.g. by :meth:`repro.workload.QueryLog.load_plain`) — part of
    #: the extraction-rate taxonomy, *not* parse errors
    continuation_lines: int = 0
    #: True when the report was replayed from a store's log manifest
    #: (zero SQL extraction happened; stage timings are empty)
    warm: bool = False

    @property
    def extraction_count(self) -> int:
        return len(self.extracted)

    @property
    def failure_count(self) -> int:
        return (self.parse_errors + self.lex_errors
                + self.unsupported_statements + self.cnf_failures)

    @property
    def extraction_rate(self) -> float:
        """Fraction of log entries with an extracted access area.

        The paper reports >99.4% on the real log (Section 6.1)."""
        if self.total == 0:
            return 0.0
        return self.extraction_count / self.total

    def record_timings(self, timings: StageTimings) -> None:
        for stage in _STAGES:
            self.stage_timings[stage].add(getattr(timings, stage))

    @property
    def intern_stats(self) -> InternStats:
        return self.interner.stats()

    def areas(self) -> list[AccessArea]:
        return [entry.area for entry in self.extracted]

    def unique_areas(self) -> tuple[list[AccessArea], list[int], list[int]]:
        """The extracted areas deduplicated: ``(unique, weights,
        inverse)`` as per :func:`dedupe_areas`.  Duplicates are already
        shared objects, so this only builds the weight/inverse maps."""
        return dedupe_areas(self.areas())


def _extractor_signature(extractor: AccessAreaExtractor) -> str:
    """A stable description of everything that shapes extraction.

    Part of the log-manifest key: changing the predicate cap, the
    consolidation toggle, or the schema must miss the warm cache —
    replaying outcomes produced under different knobs would be wrong.
    """
    schema = extractor.schema
    if schema is None:
        schema_sig = "noschema"
    else:
        schema_sig = ";".join(
            f"{relation.name}({','.join(relation.column_names)})"
            for relation in sorted(schema,
                                   key=lambda rel: rel.name.lower()))
    return (f"cap={extractor.predicate_cap}"
            f"|consolidate={extractor.consolidate}"
            f"|schema={schema_sig}")


def log_manifest_key(statements: Sequence[str | tuple[str, str]],
                     extractor: AccessAreaExtractor) -> str:
    """Content key of one (statement stream, extractor config) pair."""
    h = sha256()
    h.update(_extractor_signature(extractor).encode("utf-8"))
    for item in statements:
        sql, user = (item, None) if isinstance(item, str) else item
        h.update(b"q")
        h.update(sql.encode("utf-8"))
        if user is not None:
            h.update(b"u")
            h.update(str(user).encode("utf-8"))
    return h.hexdigest()


_FAILURE_FIELDS = {"unsupported": "unsupported_statements",
                   "lex": "lex_errors",
                   "parse": "parse_errors",
                   "cnf": "cnf_failures"}


def _replay_log_manifest(manifest: dict, statements, store,
                         registry, interner, keep_failures,
                         ) -> Optional[LogProcessingReport]:
    """Rebuild a :class:`LogProcessingReport` from a stored manifest —
    the warm path: zero parsing, zero CNF work, areas fetched from the
    segment log by digest.  ``None`` when the manifest references a
    digest the store no longer holds (caller falls back to cold)."""
    report = LogProcessingReport(interner=interner, warm=True)
    statements_total = registry.counter("repro_pipeline_statements_total")
    extracted_total = registry.counter("repro_pipeline_extracted_total")
    failure_counters = {
        kind: registry.counter("repro_pipeline_failures_total", kind=kind)
        for kind in _FAILURE_FIELDS
    }
    cache: dict[str, AccessArea] = {}
    for index, (item, outcome) in enumerate(
            zip(statements, manifest["outcomes"])):
        sql, user = (item, None) if isinstance(item, str) else item
        report.total += 1
        statements_total.inc()
        if outcome[0] == "f":
            kind, message = outcome[1], outcome[2]
            setattr(report, _FAILURE_FIELDS[kind],
                    getattr(report, _FAILURE_FIELDS[kind]) + 1)
            failure_counters[kind].inc()
            if keep_failures:
                report.failures.append((index, kind, message))
            continue
        digest_hex = outcome[1]
        area = cache.get(digest_hex)
        if area is None:
            area = store.get_area(bytes.fromhex(digest_hex))
            if area is None:
                return None
            cache[digest_hex] = area
        area = interner.intern(area)
        extracted_total.inc()
        report.extracted.append(ExtractedQuery(index, sql, area, user))
    return report


def process_log(statements: Iterable[str | tuple[str, str]],
                extractor: AccessAreaExtractor | None = None,
                keep_failures: bool = True,
                registry: Optional[metrics.MetricsRegistry] = None,
                interner: Optional[AccessAreaInterner] = None,
                store=None,
                ) -> LogProcessingReport:
    """Extract access areas from every statement of a log.

    ``statements`` yields SQL strings or ``(sql, user)`` pairs.  Failures
    are tallied by class, never raised — mirroring the robust batch run
    over 12.4M statements in the paper.  ``registry`` — metrics sink
    (defaults to the process-wide registry): per-outcome counters under
    ``repro_pipeline_*`` plus per-stage latency histograms.

    Extracted areas are pooled by canonical fingerprint: repeats of the
    same access area share one immutable object, so a repeat-heavy log
    stores ``u`` unique areas instead of ``n``, footprint caches warm
    once, and the report's :meth:`~LogProcessingReport.unique_areas`
    collapse is free.  Pass ``interner`` to share a pool across logs.

    ``store`` (an :class:`~repro.store.AreaStore`) persists the run:
    every unique area lands in the crash-safe segment log, and a **log
    manifest** — the per-statement outcome sequence keyed by a hash of
    the statement stream and extractor config — is published at the
    end.  A later call with the same statements, config, and store
    replays the manifest instead of re-extracting: zero SQL parsing,
    areas fetched by fingerprint digest, and a report whose areas are
    fingerprint-identical to the cold run's (so downstream clustering
    labels match bitwise).  Warm reports have ``report.warm`` set and
    empty stage timings.
    """
    if extractor is None:
        extractor = AccessAreaExtractor()
    if registry is None:
        registry = metrics.get_registry()
    if interner is None:
        interner = AccessAreaInterner()

    manifest_key = None
    if store is not None:
        statements = list(statements)
        manifest_key = log_manifest_key(statements, extractor)
        manifest = store.load_meta(f"log-{manifest_key}")
        if manifest is not None \
                and manifest.get("total") == len(statements):
            report = _replay_log_manifest(
                manifest, statements, store, registry, interner,
                keep_failures)
            if report is not None:
                registry.counter(
                    "repro_store_log_warm_hits_total").inc()
                interner.record(registry)
                store.record(registry)
                logger.info(
                    "warm-replayed %d statements from manifest %s: "
                    "%d extracted, zero SQL extraction",
                    report.total, manifest_key[:12],
                    report.extraction_count)
                return report
        registry.counter("repro_store_log_warm_misses_total").inc()
    statements_total = registry.counter("repro_pipeline_statements_total")
    extracted_total = registry.counter("repro_pipeline_extracted_total")
    failure_counters = {
        kind: registry.counter("repro_pipeline_failures_total", kind=kind)
        for kind in ("unsupported", "lex", "parse", "cnf")
    }
    stage_histograms = {
        stage: registry.histogram("repro_pipeline_stage_seconds",
                                  stage=stage)
        for stage in _STAGES
    }

    report = LogProcessingReport(interner=interner)
    outcomes: Optional[list] = [] if store is not None else None

    def fail(index: int, kind: str, exc: Exception) -> None:
        failure_counters[kind].inc()
        if keep_failures:
            report.failures.append((index, kind, str(exc)))
        if outcomes is not None:
            outcomes.append(("f", kind, str(exc)))

    with trace.span("process_log") as root:
        for index, item in enumerate(statements):
            sql, user = (item, None) if isinstance(item, str) else item
            report.total += 1
            statements_total.inc()
            try:
                result = extractor.extract(sql)
            except UnsupportedStatementError as exc:
                report.unsupported_statements += 1
                fail(index, "unsupported", exc)
                continue
            except LexError as exc:
                report.lex_errors += 1
                fail(index, "lex", exc)
                continue
            except ParseError as exc:
                report.parse_errors += 1
                fail(index, "parse", exc)
                continue
            except CNFConversionError as exc:
                report.cnf_failures += 1
                fail(index, "cnf", exc)
                continue
            extracted_total.inc()
            report.record_timings(result.timings)
            for stage in _STAGES:
                stage_histograms[stage].observe(
                    getattr(result.timings, stage),
                    exemplar=result.span_id)
            area = interner.intern(result.area)
            if store is not None:
                digest = store.append_area(area)
                outcomes.append(("a", digest.hex()))
            report.extracted.append(
                ExtractedQuery(index, sql, area, user))
        root.set(statements=report.total,
                 extracted=report.extraction_count,
                 failures=report.failure_count)
        if store is not None:
            store.save_meta(f"log-{manifest_key}", {
                "total": report.total,
                "extracted": report.extraction_count,
                "outcomes": outcomes,
            })
            store.checkpoint()
            store.record(registry)
        interner.record(registry)
        root.set(intern_pool=len(interner), intern_hits=interner.hits)
    logger.info(
        "processed %d statements: %d extracted (%.2f%%), %d failures",
        report.total, report.extraction_count,
        report.extraction_rate * 100.0, report.failure_count)
    return report
