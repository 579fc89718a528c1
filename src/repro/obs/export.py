"""Exporters for metrics snapshots: Prometheus text, JSON, terminal table.

All three render the plain-dict :meth:`MetricsRegistry.snapshot`
format, so they work equally on a live registry and on a
``--metrics-out`` JSON file loaded back from disk (which is how the
``repro stats`` subcommand re-renders past runs).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .metrics import MetricsRegistry

Snapshot = dict
_SourceType = Union[MetricsRegistry, Snapshot]


def _as_snapshot(source: _SourceType, include_reservoir: bool) -> Snapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot(include_reservoir=include_reservoir)
    return source


# -- Prometheus text format -------------------------------------------------

def _prom_labels(labels: dict, extra: Union[dict, None] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape(str(value))}"'
        for key, value in sorted(merged.items()))
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace(
        "\n", r"\n")


def _prom_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: Cumulative bucket upper bounds for histogram exposition (seconds-
#: flavoured ladder; ``+Inf`` is always appended).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: ``# HELP`` text for the known instrument families; anything not
#: listed falls back to a name-derived description so every exported
#: family still carries a HELP line.
HELP_TEXTS = {
    "repro_pipeline_statements_total": "Log statements processed.",
    "repro_pipeline_extracted_total":
        "Statements with an extracted access area.",
    "repro_pipeline_failures_total":
        "Extraction failures by kind (parse/lex/unsupported/cnf).",
    "repro_pipeline_stage_seconds":
        "Per-statement extractor stage latency.",
    "repro_distance_matrix_seconds": "Whole distance-matrix build time.",
    "repro_intern_pool_size": "Unique access areas in the intern pool.",
    "repro_intern_hits_total": "Intern-pool fingerprint hits.",
    "repro_intern_misses_total": "Intern-pool fingerprint misses.",
    "repro_intern_dedup_ratio": "Source areas per unique area.",
    "repro_service_requests_total":
        "HTTP requests served, by route/method/status code.",
    "repro_service_request_seconds": "Per-route request latency.",
    "repro_service_ingested_total":
        "POST /queries outcomes (clustered/failed).",
    "repro_service_ingest_seconds":
        "End-to-end ingest latency (extract + cluster + journal).",
    "repro_service_recommender_refreshes_total":
        "Recommender refits triggered by cluster-structure changes.",
}


def _help_text(name: str) -> str:
    return HELP_TEXTS.get(name, name.replace("_", " ") + ".")


def _bucket_counts(reservoir: list, count: int,
                   bounds=DEFAULT_BUCKETS) -> list[tuple[str, int]]:
    """Cumulative ``(le, count)`` pairs estimated from the reservoir.

    Exact while the reservoir is exact (≤ its capacity); beyond that
    the uniform sample is scaled to the true count, which keeps the
    buckets consistent with ``_count``/``_sum`` and monotone.
    """
    ordered = sorted(float(v) for v in reservoir)
    total = len(ordered)
    pairs: list[tuple[str, int]] = []
    position = 0
    for bound in bounds:
        while position < total and ordered[position] <= bound:
            position += 1
        scaled = round(count * position / total) if total else 0
        pairs.append((_prom_number(bound), scaled))
    pairs.append(("+Inf", count))
    return pairs


def _exemplar_suffix(entry: dict, low: float, high: float) -> str:
    """OpenMetrics exemplar annotation for the bucket ``(low, high]``
    (empty when no exemplar landed in it)."""
    for exemplar in entry.get("exemplars", ()):
        value = exemplar["value"]
        if low < value <= high:
            span_id = _prom_escape(str(exemplar["span_id"]))
            return (f' # {{span_id="{span_id}"}} '
                    f"{_prom_number(value)}")
    return ""


def to_prometheus(source: _SourceType) -> str:
    """The Prometheus text exposition format.

    Counters and gauges export directly; histograms export as native
    Prometheus histograms — cumulative ``_bucket{le=...}`` series
    (reconstructed from the quantile reservoir and scaled to the true
    count) plus ``_sum``/``_count`` — with OpenMetrics span-id
    exemplars on buckets containing a recorded slow observation, so a
    scrape can link a latency spike straight to its span tree.  The
    reservoir quantiles additionally export as a companion
    ``<name>_quantiles`` gauge family (a family must be one type, so
    they cannot share the histogram's name).  Every family carries
    ``# HELP`` and ``# TYPE`` lines.
    """
    snapshot = _as_snapshot(source, include_reservoir=True)
    lines: list[str] = []
    seen_types: set[str] = set()

    def _head(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# HELP {name} {_help_text(name)}")
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = entry["name"]
        _head(name, "counter")
        lines.append(f"{name}{_prom_labels(entry['labels'])} "
                     f"{_prom_number(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        name = entry["name"]
        _head(name, "gauge")
        lines.append(f"{name}{_prom_labels(entry['labels'])} "
                     f"{_prom_number(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        _head(name, "histogram")
        labels = entry["labels"]
        # A compact snapshot loaded from disk may lack the reservoir;
        # fall back to a two-bucket histogram that is still valid.
        reservoir = entry.get("reservoir")
        if reservoir:
            buckets = _bucket_counts(reservoir, entry["count"])
        else:
            buckets = [("+Inf", entry["count"])]
        low = float("-inf")
        for le, bucket_count in buckets:
            high = float("inf") if le == "+Inf" else float(le)
            suffix = _exemplar_suffix(entry, low, high)
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': le})} "
                f"{bucket_count}{suffix}")
            low = high
        lines.append(f"{name}_sum{_prom_labels(labels)} "
                     f"{_prom_number(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} "
                     f"{entry['count']}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"] + "_quantiles"
        _head(name, "gauge")
        labels = entry["labels"]
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
            lines.append(
                f"{name}{_prom_labels(labels, {'quantile': q_label})} "
                f"{_prom_number(entry[q_key])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON -------------------------------------------------------------------

def to_json(source: _SourceType, include_reservoir: bool = False) -> str:
    """The snapshot as a JSON document (compact, sorted keys)."""
    snapshot = _as_snapshot(source, include_reservoir)
    return json.dumps(snapshot, sort_keys=True, indent=2)


def write_json(source: _SourceType, path: Union[str, Path],
               include_reservoir: bool = False) -> None:
    Path(path).write_text(to_json(source, include_reservoir) + "\n",
                          encoding="utf-8")


def load_json(path: Union[str, Path]) -> Snapshot:
    """Read back a ``--metrics-out`` dump for re-rendering."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- terminal summary table -------------------------------------------------

def _instrument_label(entry: dict) -> str:
    labels = entry["labels"]
    if not labels:
        return entry["name"]
    body = ",".join(f"{key}={value}"
                    for key, value in sorted(labels.items()))
    return f"{entry['name']}{{{body}}}"


def render_table(source: _SourceType) -> str:
    """A fixed-width table for terminals (the ``repro stats`` view)."""
    snapshot = _as_snapshot(source, include_reservoir=False)
    sections: list[str] = []

    counters = snapshot.get("counters", [])
    gauges = snapshot.get("gauges", [])
    histograms = snapshot.get("histograms", [])

    scalar_rows = ([(_instrument_label(e), e["value"]) for e in counters]
                   + [(_instrument_label(e), e["value"]) for e in gauges])
    if scalar_rows:
        width = max(len(name) for name, _ in scalar_rows)
        lines = [f"{'counter / gauge':<{width}}  {'value':>14}",
                 "-" * (width + 16)]
        for name, value in scalar_rows:
            lines.append(f"{name:<{width}}  {_prom_number(value):>14}")
        sections.append("\n".join(lines))

    if histograms:
        width = max(len(_instrument_label(e)) for e in histograms)
        header = (f"{'histogram':<{width}}  {'count':>8}  {'mean':>11}  "
                  f"{'p50':>11}  {'p95':>11}  {'p99':>11}  {'max':>11}")
        lines = [header, "-" * len(header)]
        for entry in histograms:
            lines.append(
                f"{_instrument_label(entry):<{width}}  "
                f"{entry['count']:>8}  "
                f"{entry['mean']:>11.6f}  {entry['p50']:>11.6f}  "
                f"{entry['p95']:>11.6f}  {entry['p99']:>11.6f}  "
                f"{entry['max']:>11.6f}")
        sections.append("\n".join(lines))

    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
