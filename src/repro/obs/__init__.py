"""Observability: structured logging, span tracing, metrics.

The pipeline's answer to "where do time and failures go" once logs
stop fitting in a terminal: per-module structured logs
(:mod:`.logs`), hierarchical timing spans with a JSONL sink
(:mod:`.trace`), and a process-wide metrics registry with
Prometheus/JSON/table exporters (:mod:`.metrics`, :mod:`.export`).

Everything defaults to the cheapest possible state: tracing is a
no-op until :func:`set_tracer` installs a real :class:`Tracer`,
logging is a ``NullHandler`` until :func:`configure_logging`, and the
default registry can be swapped for :class:`NullRegistry` to disable
metric collection entirely.  This layer depends on nothing else in
the package, so every other layer may import it.
"""

from .logs import (JsonFormatter, configure_logging, get_logger)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NullRegistry, RunningStats, get_registry,
                      set_registry, use_registry)
from .trace import (NULL_TRACER, NullTracer, Span, Tracer, flush_all_open,
                    format_span_tree, get_tracer, load_trace, set_tracer,
                    span, use_tracer)
from .export import (load_json, render_table, to_json, to_prometheus,
                     write_json)
from .profile import (NULL_PROFILER, NullProfiler, Profiler,
                      get_profiler, profile_section, set_profiler,
                      use_profiler)

__all__ = [
    "JsonFormatter", "configure_logging", "get_logger",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "RunningStats", "get_registry", "set_registry", "use_registry",
    "NULL_TRACER", "NullTracer", "Span", "Tracer",
    "flush_all_open", "format_span_tree",
    "get_tracer", "load_trace", "set_tracer", "span", "use_tracer",
    "load_json", "render_table", "to_json", "to_prometheus", "write_json",
    "NULL_PROFILER", "NullProfiler", "Profiler", "get_profiler",
    "profile_section", "set_profiler", "use_profiler",
]
