"""Shared condensed distance-matrix engine for the clustering stage.

Every clustering algorithm in the package needs the same thing: the
pairwise ``d = d_tables + d_conj`` values over a population of access
areas.  Computing them inside each algorithm made the hot path
redundant.  :class:`DistanceMatrix` computes the upper triangle once
into the scipy-style *condensed* layout (``n·(n−1)/2`` floats, pair
``(i, j)`` with ``i < j`` at index ``i·(2n−i−1)/2 + (j−i−1)``) and hands
the algorithms O(1) lookups and vectorized row/neighbour queries.

When the metric decomposes like the paper's query distance
(``d_tables``/``d_conj`` attributes), the vectorized kernel fills every
entry (:func:`~.kernel.dense_fill`): one pack over all items gives each
pair's ``d_conj`` in bands of rows, and a table of ``d_tables`` by
table-set code — a SkyServer-scale log has millions of statements but
only a handful of distinct FROM sets — adds the Jaccard term.  Pairs
that touch an item the kernel refuses are evaluated per pair.

Every stored value is bitwise the per-pair metric's.
:class:`MatrixStats` reports what happened: pairs computed, cache hit
rates, wall time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..obs import get_logger, metrics, trace
from .kernel import dense_fill

logger = get_logger(__name__)

Metric = Callable[[object, object], float]


def is_decomposed(metric, items: Sequence) -> bool:
    """True when ``metric``/``items`` support the ``d_tables + d_conj``
    decomposition the partitioned fills rely on."""
    return (hasattr(metric, "d_tables") and hasattr(metric, "d_conj")
            and all(hasattr(item, "table_set") and hasattr(item, "cnf")
                    for item in items))


def _pairs_of(matrix, indices: Sequence[int]) -> np.ndarray:
    """The condensed values of ``matrix`` restricted to ``indices``: one
    :meth:`take` over every pair ``a < b`` of positions, row-major."""
    idx = np.asarray(indices, dtype=np.intp)
    first, second = np.triu_indices(len(idx), k=1)
    return matrix.take(idx[first], idx[second])


def condensed_index(i: int, j: int, n: int) -> int:
    """Index of pair ``(i, j)``, ``i < j``, in the condensed layout."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@dataclass
class MatrixStats:
    """Instrumentation of one :meth:`DistanceMatrix.compute` run."""

    n_items: int = 0
    pairs_total: int = 0
    #: pairs whose full metric was evaluated
    pairs_computed: int = 0
    #: block-sparse only: cross-partition pairs answered by their
    #: ``d_tables`` lower bound
    pairs_skipped: int = 0
    #: distinct relation-set pairs whose Jaccard term was evaluated
    table_pairs: int = 0
    #: ``d_tables`` lookups served from the relation-set memo
    table_cache_hits: int = 0
    predicate_cache_hits: int = 0
    predicate_cache_misses: int = 0
    elapsed_seconds: float = 0.0
    #: partition blocks stored (0 for the dense matrix)
    n_blocks: int = 0
    #: items in the largest stored partition block
    largest_block: int = 0
    #: condensed floats actually allocated — ``n·(n−1)/2`` for the dense
    #: matrix; ``Σ m_p·(m_p−1)/2`` block entries plus the P×P bound
    #: table for the block-sparse one
    stored_floats: int = 0
    #: source population size before access-area interning collapsed it
    #: to ``n_items`` unique areas (0 = the matrix was built without
    #: interning)
    n_source_items: int = 0
    #: per-metric totals already pushed to a registry (see :meth:`record`)
    _recorded: dict = field(default_factory=dict, repr=False,
                            compare=False)

    @property
    def dedup_ratio(self) -> float:
        """Source areas per unique matrix item (1.0 without interning)."""
        if not self.n_source_items or not self.n_items:
            return 1.0
        return self.n_source_items / self.n_items

    @property
    def skip_fraction(self) -> float:
        if not self.pairs_total:
            return 0.0
        return self.pairs_skipped / self.pairs_total

    @property
    def storage_fraction(self) -> float:
        """Stored floats relative to the full condensed triangle."""
        if not self.pairs_total:
            return 0.0
        return self.stored_floats / self.pairs_total

    @property
    def predicate_cache_hit_rate(self) -> float:
        probes = self.predicate_cache_hits + self.predicate_cache_misses
        if not probes:
            return 0.0
        return self.predicate_cache_hits / probes

    def summary(self) -> str:
        interned = ""
        if self.n_source_items:
            interned = (f"interned from {self.n_source_items} source "
                        f"areas ({self.dedup_ratio:.1f}x dedup); ")
        blocks = ""
        if self.n_blocks:
            blocks = (f"{self.n_blocks} blocks (largest "
                      f"{self.largest_block}), {self.stored_floats:,} "
                      f"floats stored ({self.storage_fraction:.1%} of "
                      f"dense); ")
        blocks = interned + blocks
        return (
            f"{self.n_items} items, {self.pairs_total:,} pairs: "
            f"{self.pairs_computed:,} computed, "
            f"{self.pairs_skipped:,} bound-skipped "
            f"({self.skip_fraction:.1%}); {blocks}"
            f"d_tables memo {self.table_cache_hits:,} hits / "
            f"{self.table_pairs:,} entries; "
            f"d_pred cache hit rate {self.predicate_cache_hit_rate:.1%}; "
            f"{self.elapsed_seconds:.3f} s")

    def record(self, registry) -> None:
        """Fold this run into a metrics registry (``repro_distance_*``).

        Delta-based and idempotent: recording the same stats object
        twice (a resident registry's lifecycle) adds nothing the
        second time — counters end equal to the true totals.
        """
        from ..obs.metrics import (observe_when_changed,
                                   record_counter_deltas)
        record_counter_deltas(registry, self._recorded, (
            ("repro_distance_pairs_total", self.pairs_total),
            ("repro_distance_pairs_computed_total",
             self.pairs_computed),
            ("repro_distance_pairs_skipped_total", self.pairs_skipped),
            ("repro_distance_table_cache_hits_total",
             self.table_cache_hits),
            ("repro_distance_pred_cache_hits_total",
             self.predicate_cache_hits),
            ("repro_distance_pred_cache_misses_total",
             self.predicate_cache_misses),
            ("repro_distance_blocks_total", self.n_blocks)))
        observe_when_changed(registry, self._recorded,
                             "repro_distance_matrix_seconds",
                             self.elapsed_seconds)
        if self.stored_floats:
            registry.gauge("repro_distance_stored_floats").set(
                self.stored_floats)
            registry.gauge("repro_distance_storage_fraction").set(
                self.storage_fraction)


class DistanceMatrix:
    """Condensed symmetric pairwise distance matrix.

    Obtain one via :meth:`compute`; the constructor takes an existing
    condensed value array (e.g. from :meth:`submatrix`).
    """

    def __init__(self, n: int, condensed: np.ndarray,
                 stats: Optional[MatrixStats] = None) -> None:
        condensed = np.asarray(condensed, dtype=float)
        expected = n * (n - 1) // 2
        if condensed.shape != (expected,):
            raise ValueError(
                f"condensed shape {condensed.shape} does not match "
                f"{n} items (expected ({expected},))")
        self.n = n
        self._values = condensed
        self.stats = stats or MatrixStats(
            n_items=n, pairs_total=expected, pairs_computed=expected,
            stored_floats=expected)

    # -- construction -------------------------------------------------------

    @classmethod
    def compute(cls, items: Sequence, metric: Metric, *,
                registry: Optional[metrics.MetricsRegistry] = None,
                ) -> "DistanceMatrix":
        """Evaluate ``metric`` over every unordered pair of ``items``.

        ``registry`` — metrics sink (defaults to the process-wide
        registry).
        """
        n = len(items)
        if registry is None:
            registry = metrics.get_registry()
        total = n * (n - 1) // 2
        stats = MatrixStats(n_items=n, pairs_total=total,
                            pairs_computed=total, stored_floats=total)
        started = time.perf_counter()
        pred_info = getattr(metric, "pred_cache_info", None)
        before = pred_info() if pred_info is not None else None

        with trace.span("distance_matrix", n_items=n) as span:
            with trace.span("fill", pairs=total) as fill:
                if is_decomposed(metric, items):
                    with trace.span("kernel_blocks", partitions=1):
                        values, kernel_stats = dense_fill(items, metric)
                    kernel_stats.record(registry)
                    fill.set(pairs_vectorized=kernel_stats.pairs_vectorized,
                             pairs_per_pair=kernel_stats.pairs_fallback)
                    sizes = Counter(item.table_set for item in items)
                    stats.table_pairs = len(sizes) * (len(sizes) - 1) // 2
                    # Every cross-partition pair beyond the first per
                    # partition pair reads the d_tables table.
                    stats.table_cache_hits = total - stats.table_pairs - sum(
                        m * (m - 1) // 2 for m in sizes.values())
                else:
                    values = np.array([metric(items[i], items[j])
                                       for i in range(n)
                                       for j in range(i + 1, n)],
                                      dtype=float)
            if before is not None:
                after = pred_info()
                stats.predicate_cache_hits = after.hits - before.hits
                stats.predicate_cache_misses = after.misses - before.misses
            stats.elapsed_seconds = time.perf_counter() - started
            span.set(pairs_computed=stats.pairs_computed)

        stats.record(registry)
        logger.debug("distance matrix: %s", stats.summary())
        return cls(n, values, stats)

    @classmethod
    def from_square(cls, matrix: np.ndarray) -> "DistanceMatrix":
        """Adopt an ``(n, n)`` symmetric matrix (upper triangle is read)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"not a square matrix: shape {matrix.shape}")
        n = matrix.shape[0]
        return cls(n, matrix[np.triu_indices(n, k=1)])

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def condensed(self) -> np.ndarray:
        """The raw condensed value array (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def value(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self._values[condensed_index(i, j, self.n)])

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.value(*pair)

    def row(self, i: int) -> np.ndarray:
        """Distances from item ``i`` to every item (length ``n``)."""
        n = self.n
        out = np.empty(n, dtype=float)
        out[i] = 0.0
        if i + 1 < n:
            start = condensed_index(i, i + 1, n)
            out[i + 1:] = self._values[start:start + (n - 1 - i)]
        if i > 0:
            js = np.arange(i)
            out[:i] = self._values[js * (2 * n - js - 1) // 2 + (i - js - 1)]
        return out

    def neighbors(self, i: int, eps: float) -> list[int]:
        """Indices within radius ``eps`` of item ``i`` (including ``i``)."""
        return list(np.flatnonzero(self.row(i) <= eps))

    def to_square(self) -> np.ndarray:
        """Expand to the full ``(n, n)`` symmetric matrix."""
        out = np.zeros((self.n, self.n), dtype=float)
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self._values
        out[(iu[1], iu[0])] = self._values
        return out

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``value(rows[k], cols[k])`` for every ``k``, in one gather."""
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        same = lo == hi
        index = lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1)
        index[same] = 0
        values = self._values[index] if len(self._values) else \
            np.zeros(len(index))
        values[same] = 0.0
        return values

    def submatrix(self, indices: Sequence[int]) -> "DistanceMatrix":
        """The matrix restricted to ``indices`` (in the given order)."""
        return DistanceMatrix(len(indices), _pairs_of(self, indices))
