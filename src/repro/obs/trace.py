"""Lightweight nestable span tracing with a JSONL sink.

A *span* is a named, timed region of work with free-form attributes::

    with trace.span("cnf", query_id=17) as s:
        cnf = to_cnf(expr)
        s.set(clauses=len(cnf))

Spans nest: entering a span while another is open attaches it as a
child, producing one hierarchical timing tree per top-level operation
(a ``process_log`` root with per-query children, each with its four
stage grandchildren).  Exceptions close the span with
``status == "error"`` and propagate.

The default tracer is :data:`NULL_TRACER`, a no-op whose ``span()``
returns a shared context manager — the instrumented hot paths cost one
call and no allocations when tracing is off.  Enable tracing with
:func:`set_tracer` (or the :func:`use_tracer` context manager); give
the tracer a ``sink`` path and every completed *root* span is appended
to the file as one JSON object per line, nested children inline —
streaming, so a crash mid-run loses at most the open roots.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO, Union

_id_lock = threading.Lock()
_id_counter = 0


def new_span_id() -> str:
    """A process-unique 16-hex-char span id.

    Built from the pid and a process-local counter, so ids minted by
    different processes (two runs' trace files, the spans a histogram
    exemplar names) do not collide.  (A counter, not a clock: two spans
    opened within one timer tick must still get distinct ids.)
    """
    global _id_counter
    with _id_lock:
        _id_counter += 1
        count = _id_counter
    return f"{os.getpid() & 0xFFFFFF:06x}{count & 0xFFFFFFFFFF:010x}"


class Span:
    """One timed region: name, attributes, children, outcome."""

    __slots__ = ("name", "attrs", "children", "start", "end", "status",
                 "error", "span_id", "trace_id")

    def __init__(self, name: str, attrs: Optional[dict] = None,
                 trace_id: Optional[str] = None) -> None:
        self.name = name
        self.attrs = dict(attrs or {})
        self.children: list[Span] = []
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.span_id = new_span_id()
        self.trace_id = trace_id

    def set(self, **attrs) -> None:
        """Attach attributes to the span (overwrites same keys)."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "duration_s": round(self.duration, 9),
            "status": self.status,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.attrs:
            out["attrs"] = _jsonable(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first lookup of a descendant span by name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children, {self.status})")


def _jsonable(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class _SpanContext:
    """The ``with`` handle: closes the span and pops the stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, **attrs) -> None:
        self.span.set(**attrs)

    def __enter__(self) -> "_SpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span.end = time.perf_counter()
        if exc is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._close(span)
        return False  # never swallow


class Tracer:
    """Collects span trees; thread-local nesting, optional JSONL sink.

    ``sink`` — a path or open text file; each completed root span is
    written as one JSON line.  ``keep`` — retain completed roots in
    :attr:`roots` for in-process inspection (on by default; large
    batch runs with a sink may turn it off to bound memory).
    """

    def __init__(self, sink: Union[str, TextIO, None] = None,
                 keep: bool = True) -> None:
        self.roots: list[Span] = []
        self.keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._own_handle = False
        self._open_roots: dict[int, Span] = {}
        self._flushed: set[int] = set()
        if isinstance(sink, str):
            self._sink: Optional[TextIO] = open(sink, "a",
                                                encoding="utf-8")
            self._own_handle = True
        else:
            self._sink = sink
        if self._sink is not None:
            _register_atexit_flush(self)

    @property
    def enabled(self) -> bool:
        return True

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        stack = self._stack()
        if stack:
            span = Span(name, attrs, trace_id=stack[-1].trace_id)
            stack[-1].children.append(span)
        else:
            span = Span(name, attrs)
            span.trace_id = span.span_id
            with self._lock:
                self._open_roots[id(span)] = span
        stack.append(span)
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        """The innermost open span of this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _write(self, span: Span) -> None:
        if self._sink is None:
            return
        line = json.dumps(span.to_dict(), sort_keys=True)
        try:
            with self._lock:
                self._sink.write(line + "\n")
                self._sink.flush()
        except ValueError:
            # Sink already closed (interpreter shutdown race) — the
            # flush hooks must never turn a crash into another crash.
            pass

    def _close(self, span: Span) -> None:
        stack = self._stack()
        # Exception-tolerant pop: close everything above `span` too.
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            dangling.end = dangling.end or span.end
        if stack:
            stack.pop()
        if not stack:  # a root completed
            with self._lock:
                self._open_roots.pop(id(span), None)
                already_flushed = id(span) in self._flushed
            if self.keep:
                self.roots.append(span)
            if not already_flushed:
                self._write(span)

    @property
    def open_roots(self) -> list[Span]:
        """Root spans still open right now (crash handlers read this
        before :meth:`flush_open` pops them)."""
        with self._lock:
            return list(self._open_roots.values())

    def flush_open(self) -> int:
        """Write every still-open root span to the sink as a partial
        trace (``status == "partial"`` unless already an error).

        Called from the :mod:`atexit` hook and from CLI crash handlers,
        so an interrupted run still leaves its in-flight span trees in
        the JSONL sink.  Roots flushed here are remembered and not
        re-written if they later close normally.  Returns the number of
        roots flushed."""
        with self._lock:
            pending = list(self._open_roots.values())
        flushed = 0
        for root in pending:
            if root.status == "ok":
                root.status = "partial"
            self._write(root)
            with self._lock:
                self._flushed.add(id(root))
                self._open_roots.pop(id(root), None)
            flushed += 1
        return flushed

    def close(self) -> None:
        if self._own_handle and self._sink is not None:
            self.flush_open()
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _NullSpanContext:
    """Shared do-nothing span handle."""

    __slots__ = ()
    span = None

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Disabled tracing: ``span()`` returns one shared no-op handle."""

    _CONTEXT = _NullSpanContext()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return self._CONTEXT

    def current(self) -> None:
        return None

    def flush_open(self) -> int:
        return 0

    @property
    def roots(self) -> list:
        return []

    @property
    def open_roots(self) -> list:
        return []

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
_tracer: Union[Tracer, NullTracer] = NULL_TRACER

# -- crash-time flushing ----------------------------------------------------
#
# Tracers with a sink enrol themselves here; one atexit hook flushes
# whatever roots are still open when the interpreter exits, so a run
# killed mid-span (sys.exit deep in a library, an abandoned generator,
# a signal-triggered shutdown) still leaves a usable partial trace.

_sink_tracers: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_atexit_registered = False


def _register_atexit_flush(tracer: "Tracer") -> None:
    global _atexit_registered
    _sink_tracers.add(tracer)
    if not _atexit_registered:
        atexit.register(flush_all_open)
        _atexit_registered = True


def flush_all_open() -> int:
    """Flush open root spans of every sink-backed tracer; returns the
    number of partial roots written.  Safe to call repeatedly."""
    flushed = 0
    for tracer in list(_sink_tracers):
        try:
            flushed += tracer.flush_open()
        except Exception:  # never let a flush hook raise at shutdown
            pass
    return flushed


def get_tracer() -> Union[Tracer, NullTracer]:
    return _tracer


def set_tracer(tracer: Union[Tracer, NullTracer, None]
               ) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` process-wide (``None`` → no-op); returns the
    previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]
               ) -> Iterator[Union[Tracer, NullTracer]]:
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attrs):
    """Open a span on the process-wide tracer (no-op by default)."""
    return _tracer.span(name, **attrs)


# -- trace file rendering ---------------------------------------------------

def load_trace(path: str) -> list[dict]:
    """Parse a JSONL trace file into root-span dicts."""
    roots = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                roots.append(json.loads(line))
    return roots


def format_span_tree(root: dict, indent: int = 0,
                     max_children: int = 12) -> str:
    """Render one span dict (from :func:`load_trace`) as an ASCII tree."""
    lines = [_format_span_line(root, indent)]
    children = root.get("children", [])
    shown = children if len(children) <= max_children \
        else children[:max_children]
    for child in shown:
        lines.append(format_span_tree(child, indent + 1, max_children))
    if len(children) > len(shown):
        pad = "  " * (indent + 1)
        lines.append(f"{pad}… {len(children) - len(shown)} more children")
    return "\n".join(lines)


def _format_span_line(node: dict, indent: int) -> str:
    pad = "  " * indent
    duration_ms = node.get("duration_s", 0.0) * 1e3
    flag = "" if node.get("status", "ok") == "ok" \
        else f"  [{node.get('status')}: {node.get('error', '?')}]"
    attrs = node.get("attrs") or {}
    attr_text = ""
    if attrs:
        parts = [f"{key}={value}" for key, value in sorted(attrs.items())]
        attr_text = "  (" + ", ".join(parts) + ")"
    return f"{pad}{node['name']}  {duration_ms:.3f} ms{attr_text}{flag}"
