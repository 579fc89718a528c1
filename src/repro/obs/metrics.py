"""Metrics primitives: counters, gauges, histograms, and their registry.

The pipeline needs to answer "where do time and failures go" at
SkyServer scale (millions of heterogeneous statements), which a single
end-of-run summary cannot.  This module provides the three classic
instrument kinds:

* :class:`Counter` — monotonically increasing event tallies
  (statements processed, cache hits, bound-skips);
* :class:`Gauge` — last-written values (clusters found, sample size);
* :class:`Histogram` — value distributions with quantile estimation
  (stage latencies, chunk latencies, cluster sizes).

Quantiles use deterministic reservoir sampling: up to
``reservoir_size`` observations are kept exactly (small runs report
exact quantiles), beyond that a seeded :class:`random.Random` keeps a
uniform sample, so repeated runs of a deterministic pipeline report
identical p50/p95/p99.

:class:`MetricsRegistry` is the process-wide sink.  A default registry
exists (:func:`get_registry`); tests inject their own via
:func:`set_registry` / :func:`use_registry`.  Registries snapshot to
plain dicts, which the exporters (:mod:`.export`) and the run records
render.

:class:`NullRegistry` is the disabled mode: every instrument it hands
out is a shared no-op, keeping the hot path free of locks and
appends.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from random import Random
from typing import Iterator, Optional

#: Observations kept exactly before reservoir sampling kicks in.
DEFAULT_RESERVOIR_SIZE = 512

#: Slowest observations per histogram that keep a span-id exemplar.
EXEMPLAR_CAP = 5

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class RunningStats:
    """Count / total / min / max accumulator shared by every instrument.

    ``minimum`` and ``maximum`` are tracked symmetrically (both unset
    until the first value) and report ``0.0`` when empty, so exported
    reports over empty runs stay finite and parseable.
    """

    __slots__ = ("count", "total", "_minimum", "_maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._minimum: Optional[float] = None
        self._maximum: Optional[float] = None

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self._minimum is None or value < self._minimum:
            self._minimum = value
        if self._maximum is None or value > self._maximum:
            self._maximum = value

    @property
    def minimum(self) -> float:
        return 0.0 if self._minimum is None else self._minimum

    @property
    def maximum(self) -> float:
        return 0.0 if self._maximum is None else self._maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str = "", labels: Optional[dict] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str = "", labels: Optional[dict] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Value distribution with reservoir-backed quantiles.

    Exact up to ``reservoir_size`` observations, uniform-sampled beyond
    that.  The sampler is seeded from the metric name (CRC32) so a
    deterministic pipeline reports deterministic quantiles; it is built
    at the first observation past the reservoir, since most histograms
    never see one.
    """

    __slots__ = ("name", "labels", "stats", "reservoir", "exemplars",
                 "_size", "_rng", "_lock")

    def __init__(self, name: str = "", labels: Optional[dict] = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.stats = RunningStats()
        self.reservoir: list[float] = []
        #: ``(value, span_id)`` of the slowest exemplar-bearing
        #: observations — the link from a bad quantile back to the span
        #: tree that produced it.
        self.exemplars: list[tuple[float, str]] = []
        self._size = reservoir_size
        self._rng: Optional[Random] = None
        self._lock = threading.Lock()

    def observe(self, value: float,
                exemplar: Optional[str] = None) -> None:
        value = float(value)
        with self._lock:
            self.stats.add(value)
            if len(self.reservoir) < self._size:
                self.reservoir.append(value)
            else:
                if self._rng is None:
                    self._rng = Random(zlib.crc32(self.name.encode("utf-8")))
                slot = self._rng.randrange(self.stats.count)
                if slot < self._size:
                    self.reservoir[slot] = value
            if exemplar is not None:
                self._note_exemplar(value, str(exemplar))

    def _note_exemplar(self, value: float, span_id: str) -> None:
        # Keep the top EXEMPLAR_CAP by (value, span_id) — a total order,
        # so the surviving set never depends on arrival order.
        self.exemplars.append((value, span_id))
        if len(self.exemplars) > EXEMPLAR_CAP:
            self.exemplars.sort(key=lambda pair: (-pair[0], pair[1]))
            del self.exemplars[EXEMPLAR_CAP:]

    # -- summary statistics -------------------------------------------------

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def total(self) -> float:
        return self.stats.total

    @property
    def minimum(self) -> float:
        return self.stats.minimum

    @property
    def maximum(self) -> float:
        return self.stats.maximum

    @property
    def mean(self) -> float:
        return self.stats.mean

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the reservoir, ``q ∈ [0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            data = sorted(self.reservoir)
        if not data:
            return 0.0
        if len(data) == 1:
            return data[0]
        position = q * (len(data) - 1)
        low = int(position)
        high = min(low + 1, len(data) - 1)
        fraction = position - low
        return data[low] * (1.0 - fraction) + data[high] * fraction

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class _NullCounter(Counter):
    """Shared no-op: increments vanish without taking the lock."""

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float,
                exemplar: Optional[str] = None) -> None:
        pass


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``.

    Thread-safe; the same ``(name, labels)`` pair always returns the
    same instrument instance, so call sites need not hold references.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, labels)
                self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, labels)
                self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str, reservoir_size: int =
                  DEFAULT_RESERVOIR_SIZE, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(name, labels, reservoir_size)
                self._histograms[key] = instrument
        return instrument

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, include_reservoir: bool = True) -> dict:
        """A plain-dict (JSON/pickle-safe) view of every instrument.

        ``include_reservoir`` keeps the raw histogram samples; drop it
        for compact exports.
        """
        counters = [
            {"name": c.name, "labels": dict(c.labels), "value": c.value}
            for c in self._ordered(self._counters)
        ]
        gauges = [
            {"name": g.name, "labels": dict(g.labels), "value": g.value}
            for g in self._ordered(self._gauges)
        ]
        histograms = []
        for h in self._ordered(self._histograms):
            entry = {
                "name": h.name, "labels": dict(h.labels),
                "count": h.count, "sum": h.total,
                "min": h.minimum, "max": h.maximum, "mean": h.mean,
                "p50": h.p50, "p95": h.p95, "p99": h.p99,
            }
            if include_reservoir:
                entry["reservoir"] = list(h.reservoir)
            if h.exemplars:
                entry["exemplars"] = [
                    {"value": value, "span_id": span_id}
                    for value, span_id in sorted(
                        h.exemplars,
                        key=lambda pair: (-pair[0], pair[1]))]
            histograms.append(entry)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def _ordered(self, table: dict) -> list:
        with self._lock:
            return [table[key] for key in sorted(table)]


class NullRegistry(MetricsRegistry):
    """Disabled metrics: every instrument is a shared no-op."""

    _COUNTER = _NullCounter("null")
    _GAUGE = _NullGauge("null")
    _HISTOGRAM = _NullHistogram("null")

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, **labels: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str, reservoir_size: int =
                  DEFAULT_RESERVOIR_SIZE, **labels: str) -> Histogram:
        return self._HISTOGRAM

    def snapshot(self, include_reservoir: bool = True) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


def record_counter_deltas(registry: MetricsRegistry,
                          recorded: dict,
                          pairs) -> None:
    """Inc each counter by its movement since the last call.

    ``recorded`` is the caller's per-stats-object memory of what has
    already been pushed (keyed per target registry, so a stats object
    recorded into two registries gives each the full totals).
    Cumulative totals recorded through this helper are therefore
    idempotent under re-recording: calling a ``.record`` twice against
    one registry — the resident ``repro serve`` lifecycle — leaves
    counters equal to the true totals instead of double-counting.
    """
    seen = recorded.setdefault(("counters", id(registry)), {})
    for name, value in pairs:
        delta = value - seen.get(name, 0)
        if delta > 0:
            registry.counter(name).inc(delta)
            seen[name] = value


def observe_when_changed(registry: MetricsRegistry, recorded: dict,
                         name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` unless this exact
    value was already observed by this stats object — the histogram
    analogue of :func:`record_counter_deltas` (one run contributes one
    observation per registry no matter how often its stats are
    re-recorded)."""
    key = ("histogram", id(registry), name)
    if recorded.get(key) != value:
        registry.histogram(name).observe(value)
        recorded[key] = value


_default_registry: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented code writes to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the process default."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
