"""Chunked multiprocessing fan-out for pairwise metric evaluation.

:mod:`repro.distance.matrix` plans which index pairs of a condensed
distance matrix need a full metric evaluation; this module executes that
plan, either serially or over a worker pool.  The metric and the item
sequence are shipped to each worker exactly once (via the pool
initializer).  The work unit is a flat chunk of ``(k, i, j)`` triples
(:func:`compute_pairs`, ``k`` being the condensed destination index).

Workers recompute distances with their own copy of the metric; because
the metric is a pure function of its arguments (the predicate memo only
caches, never alters, values) the parallel result is bitwise identical
to the serial one.  Any failure to spin up or use the pool — metrics
that cannot be pickled, fork-less restricted environments, interpreter
shutdown races — degrades to the serial path instead of erroring: the
pool is an optimization, never a requirement.

Each evaluated block additionally reports a :class:`BlockInfo` —
pairs computed, wall-clock seconds, and the worker-local predicate
cache delta.  These travel back over the same IPC channel as the
values, so the parent can merge per-worker metrics into its own
registry (:meth:`repro.obs.metrics.MetricsRegistry.merge`-style
aggregation at the call site in :mod:`.matrix`); the serial path
reports the identical structure for one block.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.trace import Span, TraceContext

Pair = tuple[int, int, int]  # (condensed index, i, j)

#: Tasks handed to one worker at a time.  Large enough to amortize IPC,
#: small enough that ``n_jobs`` workers stay busy on uneven blocks.
DEFAULT_CHUNK_PAIRS = 2048

_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class BlockInfo:
    """Telemetry for one evaluated block of pairs.

    Beyond the scalar counters, two optional payloads ride back over
    the same IPC channel: ``span`` — the completed span tree of this
    block (a :meth:`repro.obs.trace.Span.to_dict`), minted under the
    propagated :class:`~repro.obs.trace.TraceContext` so the parent can
    stitch one whole-run trace out of every worker's pieces — and
    ``metrics`` — the worker-local registry snapshot of everything the
    metric recorded while evaluating this block (lost before: a forked
    worker's registry writes landed in its private copy-on-write copy
    of the parent registry and died with the worker)."""

    pairs: int
    seconds: float
    pid: int
    cache_hits: int = 0
    cache_misses: int = 0
    span: Optional[dict] = None
    metrics: Optional[dict] = None


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/``0``/negative → all cores."""
    if not n_jobs or n_jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return n_jobs


def _init_worker(metric, items, trace_ctx: Optional[TraceContext] = None,
                 ship_metrics: bool = False) -> None:
    _WORKER_STATE["metric"] = metric
    _WORKER_STATE["items"] = items
    _WORKER_STATE["trace_ctx"] = trace_ctx
    _WORKER_STATE["ship_metrics"] = ship_metrics


def _block_span(name: str, ctx: Optional[TraceContext],
                started: float, elapsed: float,
                info_attrs: dict) -> Optional[dict]:
    """A completed span dict for one evaluated block, minted under the
    propagated trace context (None when tracing is off)."""
    if ctx is None:
        return None
    span = Span(name, {"pid": os.getpid(),
                       "parent_span_id": ctx.parent_span_id,
                       **info_attrs},
                trace_id=ctx.trace_id)
    span.start = started
    span.end = started + elapsed
    return span.to_dict()


def _evaluate_block(metric, items, block: Sequence[Pair],
                    trace_ctx: Optional[TraceContext] = None,
                    ) -> tuple[list[tuple[int, float]], BlockInfo]:
    started = time.perf_counter()
    pred_info = getattr(metric, "pred_cache_info", None)
    before = pred_info() if pred_info is not None else None
    entries = [(k, metric(items[i], items[j])) for k, i, j in block]
    elapsed = time.perf_counter() - started
    hits = misses = 0
    if before is not None:
        after = pred_info()
        hits = after.hits - before.hits
        misses = after.misses - before.misses
    span = _block_span("distance_chunk", trace_ctx, started, elapsed,
                       {"pairs": len(block), "cache_hits": hits,
                        "cache_misses": misses})
    return entries, BlockInfo(pairs=len(block), seconds=elapsed,
                              pid=os.getpid(), cache_hits=hits,
                              cache_misses=misses, span=span)


def _with_worker_registry(evaluate):
    """Run ``evaluate`` under a fresh worker-local registry when the
    parent asked for metric shipping; returns ``(result, snapshot)``."""
    if not _WORKER_STATE.get("ship_metrics"):
        return evaluate(), None
    registry = MetricsRegistry()
    with use_registry(registry):
        result = evaluate()
    snapshot = registry.snapshot(include_reservoir=True)
    if not (snapshot["counters"] or snapshot["gauges"]
            or snapshot["histograms"]):
        snapshot = None
    return result, snapshot


def _compute_block(block: list[Pair]
                   ) -> tuple[list[tuple[int, float]], BlockInfo]:
    (entries, info), snapshot = _with_worker_registry(
        lambda: _evaluate_block(_WORKER_STATE["metric"],
                                _WORKER_STATE["items"], block,
                                _WORKER_STATE.get("trace_ctx")))
    if snapshot is not None:
        info = replace(info, metrics=snapshot)
    return entries, info


def _serial(items: Sequence, metric: Callable, pairs: Sequence[Pair],
            chunk_pairs: int,
            ) -> tuple[list[tuple[int, float]], list[BlockInfo]]:
    ctx = obs_trace.current_context()
    entries: list[tuple[int, float]] = []
    infos: list[BlockInfo] = []
    for block in _blocks(pairs, chunk_pairs):
        block_entries, info = _evaluate_block(metric, items, block, ctx)
        entries.extend(block_entries)
        infos.append(info)
    return entries, infos


def _blocks(pairs: Sequence[Pair], size: int) -> list[list[Pair]]:
    return [list(pairs[start:start + size])
            for start in range(0, len(pairs), size)]


def compute_pairs(items: Sequence, metric: Callable[[object, object], float],
                  pairs: Sequence[Pair], n_jobs: int = 1,
                  chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                  ) -> tuple[list[tuple[int, float]], list[BlockInfo]]:
    """Evaluate ``metric`` on every ``(k, i, j)`` pair, fanning out when asked.

    Returns ``(entries, infos)``: ``(k, value)`` tuples in unspecified
    order plus one :class:`BlockInfo` per evaluated chunk.
    ``n_jobs == 1`` (or a pool failure) runs the plain serial loop.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs == 1 or len(pairs) == 0:
        return _serial(items, metric, pairs, chunk_pairs)
    blocks = _blocks(pairs, chunk_pairs)
    workers = min(n_jobs, len(blocks))
    try:
        context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None)
        with context.Pool(workers, initializer=_init_worker,
                          initargs=(metric, items,
                                    obs_trace.current_context(),
                                    True)) as pool:
            results = pool.map(_compute_block, blocks)
    except (OSError, ValueError, RuntimeError, AttributeError,
            pickle.PicklingError):
        return _serial(items, metric, pairs, chunk_pairs)
    entries = [entry for block_entries, _ in results
               for entry in block_entries]
    infos = [info for _, info in results]
    return entries, infos
