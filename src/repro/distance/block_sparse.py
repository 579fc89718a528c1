"""Block-sparse partitioned distance matrix: sub-quadratic memory.

The dense :class:`~repro.distance.DistanceMatrix` always allocates the
full ``n·(n−1)/2`` condensed triangle, though below the partition
exactness bound >95% of its entries decide nothing their ``d_tables``
lower bound would not.  At SkyServer log scale (millions of statements,
a handful of hot table sets) that memory is the bottleneck, not the
arithmetic.

:class:`BlockSparseDistanceMatrix` exploits the same structure the
partitioned clustering does, one level lower:

* areas are grouped by **canonical table set** (relation names are
  canonicalized once at extraction, so these are exactly the frozensets
  ``d_tables`` compares);
* each partition keeps a kernel pack of its members
  (:class:`~.kernel.PackedPartition`), which computes a member's row
  *within* the partition — where ``d_tables == 0`` and the full metric
  collapses to ``d_conj`` — when it is asked for;
* :meth:`~BlockSparseDistanceMatrix.compute` also stores each
  partition's exact condensed block, which batch lookups read;
* every **cross-partition** lookup is answered from a memoized P×P table
  of ``d_tables`` values — the exact lower bound ``d ≥ d_tables``, which
  any threshold query at a radius below the partition exactness bound
  treats identically to the true distance.

A computed matrix stores ``Σ m_p·(m_p−1)/2 + P²`` floats instead of
``n·(n−1)/2`` — quadratic only in the largest partition.  A matrix
grown by :meth:`~BlockSparseDistanceMatrix.insert_row` stores no
distance: an insert appends the item to its partition's pack and drops
the block that partition stored, so the live matrix holds the packs,
linear in the areas they hold, and the bound table.  Validity: every
in-partition entry is exact, and cross-partition ones are exact lower
bounds no smaller than :attr:`BlockSparseDistanceMatrix.exactness_bound`
(the population's minimum cross-partition ``d_tables``).  Any threshold
query at ``radius < exactness_bound`` therefore gets exactly the
answers the dense matrix gives.
:meth:`~BlockSparseDistanceMatrix.neighbors` is exact at every radius:
at or above the bound it also computes the rows to each partition whose
``d_tables`` bound lies within the radius, and skips every other one,
which cannot hold a neighbour.

The lookup API (``value``/``take``/``row``/``neighbors``/``submatrix``/
``stats``/``__len__``) matches the dense matrix, so dbscan, optics,
single-linkage and partitioned DBSCAN accept either implementation
unchanged.  Every row and block comes from the vectorized kernel
(:mod:`repro.distance.kernel`), bitwise equal to per-pair evaluation; a
partition the kernel cannot replay falls back to per-pair metric calls.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from ..obs import get_logger, metrics, trace
from .kernel import KernelStats, KernelUnsupported, PackedPartition
from .matrix import (DistanceMatrix, MatrixStats, Metric, _pairs_of,
                     is_decomposed)
from .query_distance import partition_exactness_bound

logger = get_logger(__name__)

#: Modes accepted by :func:`compute_matrix`: ``kernel`` is the
#: block-sparse layout, ``dense`` the full :class:`DistanceMatrix`, and
#: ``auto`` lets ``eps`` pick between them.
MATRIX_MODES = ("auto", "dense", "kernel")


def _packed(areas: Sequence, metric: Metric) -> Optional[PackedPartition]:
    """A kernel pack of one partition's ``areas``, or ``None`` when the
    kernel refuses them: that partition then goes per pair."""
    try:
        return PackedPartition(areas, metric)
    except KernelUnsupported as exc:
        logger.debug("per-pair fallback for a %d-area partition: %s",
                     len(areas), exc)
        return None


def _exactness_bound(bounds: np.ndarray) -> float:
    """The smallest cross-partition ``d_tables`` of a bound table
    (``inf`` below two partitions)."""
    p = len(bounds)
    if p < 2:
        return math.inf
    return float(bounds[~np.eye(p, dtype=bool)].min())


class BlockSparseDistanceMatrix:
    """Partitioned distance matrix with bound-valued cross blocks.

    Built by :meth:`compute` (over no items, for a matrix that
    :meth:`insert_row` grows).  Each partition holds the global indices
    of its members, their kernel pack and, until an insert reaches the
    partition, the condensed block :meth:`compute` stored; ``bounds``
    is the symmetric P×P ``d_tables`` table (zero diagonal).
    """

    def __init__(self, items: Sequence, metric: Metric,
                 keys: Sequence[frozenset],
                 members: Sequence[Sequence[int]],
                 packs: Sequence[Optional[PackedPartition]],
                 blocks: Sequence[np.ndarray], bounds: np.ndarray,
                 stats: MatrixStats) -> None:
        self.n = len(items)
        #: every item, so rows the packs cannot give (and the bound
        #: table of a new partition) can be evaluated by ``metric``.
        self._items = list(items)
        self._metric = metric
        self._keys = list(keys)
        self._key_to_pid = {key: pid
                            for pid, key in enumerate(self._keys)}
        self._members = [np.asarray(m, dtype=np.intp) for m in members]
        #: per-partition kernel pack holding every member in order
        #: (``None`` = retired to the per-pair metric).
        self._packs: dict[int, Optional[PackedPartition]] = \
            dict(enumerate(packs))
        #: per-partition condensed block :meth:`compute` stored
        #: (``None`` once an insert reached the partition).
        self._blocks: list[Optional[DistanceMatrix]] = [
            DistanceMatrix(len(m), block)
            for m, block in zip(self._members, blocks)]
        self._bounds = bounds
        self.exactness_bound = _exactness_bound(bounds)
        self.stats = stats
        self._pids_buf = np.zeros(self.n, dtype=np.intp)
        self._local_buf = np.zeros(self.n, dtype=np.intp)
        for pid, m in enumerate(self._members):
            self._pids_buf[m] = pid
            self._local_buf[m] = np.arange(len(m), dtype=np.intp)

    @property
    def _pids(self) -> np.ndarray:
        return self._pids_buf[:self.n]

    @property
    def _local(self) -> np.ndarray:
        return self._local_buf[:self.n]

    # -- construction -------------------------------------------------------

    @classmethod
    def compute(cls, items: Sequence, metric: Metric, *,
                cutoff: Optional[float] = None,
                registry: Optional[metrics.MetricsRegistry] = None,
                ) -> "BlockSparseDistanceMatrix":
        """Evaluate ``metric`` block-sparsely over ``items``.

        Requires a decomposed metric (``d_tables``/``d_conj``) and items
        with ``table_set``/``cnf`` — the structure the sparsity comes
        from.  ``cutoff`` — the radius later lookups will use; it must
        lie strictly below the population's partition exactness bound or
        the stored cross-partition bounds cannot answer ``value``/
        ``row``/``take``/``submatrix`` threshold lookups exactly
        (:meth:`compute` raises — use the dense matrix instead).
        ``registry`` — metrics sink (defaults to the process-wide
        registry).  Each partition is packed once, and its block is the
        pack's :meth:`~.kernel.PackedPartition.condensed_block`; a
        partition the kernel refuses is evaluated per pair, so every
        value is bitwise the per-pair one.  The packs stay with the
        matrix, for the rows of :meth:`insert_row`'s growth and of
        :meth:`neighbors`' other partitions.
        """
        if not is_decomposed(metric, items):
            raise ValueError(
                "block-sparse matrix requires a decomposed metric "
                "(d_tables/d_conj) over items with table_set/cnf; "
                "use DistanceMatrix for arbitrary metrics")
        n = len(items)
        if registry is None:
            registry = metrics.get_registry()
        started = time.perf_counter()
        pred_info = getattr(metric, "pred_cache_info", None)
        before = pred_info() if pred_info is not None else None

        with trace.span("block_sparse_matrix", n_items=n) as span:
            with trace.span("plan"):
                groups: dict[frozenset, list[int]] = {}
                for index, item in enumerate(items):
                    groups.setdefault(item.table_set, []).append(index)
                keys = sorted(groups, key=lambda k: (len(k), sorted(k)))
                members = [groups[key] for key in keys]
                p = len(keys)

                # Memoized d_tables per partition pair: one evaluation
                # answers every cross-partition lookup of that pair.
                bounds = np.zeros((p, p), dtype=float)
                reps = [items[m[0]] for m in members]
                for a in range(p):
                    for b in range(a + 1, p):
                        value = metric.d_tables(reps[a], reps[b])
                        bounds[a, b] = bounds[b, a] = value
                exactness = _exactness_bound(bounds)
                if cutoff is not None and cutoff >= exactness:
                    raise ValueError(
                        f"cutoff {cutoff:g} is not below the partition "
                        f"exactness bound {exactness:.4g}: cross-"
                        f"partition entries would no longer answer "
                        f"threshold queries exactly; use the dense "
                        f"DistanceMatrix")

            kernel_stats = KernelStats()
            packs: list[Optional[PackedPartition]] = []
            blocks: list[np.ndarray] = []
            with trace.span("fill", partitions=p), \
                    trace.span("kernel_blocks", partitions=p):
                for member_list in members:
                    subset = [items[k] for k in member_list]
                    packing = time.perf_counter()
                    pack = _packed(subset, metric)
                    if pack is None:
                        m = len(subset)
                        block = np.array(
                            [metric(subset[a], subset[b])
                             for a in range(m) for b in range(a + 1, m)],
                            dtype=float)
                        kernel_stats.partitions_fallback += 1
                        kernel_stats.pairs_fallback += len(block)
                    else:
                        filling = time.perf_counter()
                        kernel_stats.pack_seconds += filling - packing
                        block = pack.condensed_block()
                        kernel_stats.block_seconds += \
                            time.perf_counter() - filling
                        kernel_stats.partitions_packed += 1
                        kernel_stats.n_predicates += pack.n_predicates
                        kernel_stats.n_clauses += pack.n_clauses
                        kernel_stats.pairs_vectorized += len(block)
                    packs.append(pack)
                    blocks.append(block)
            kernel_stats.record(registry)
            logger.debug("kernel blocks: %s", kernel_stats.summary())

            stats = MatrixStats(n_items=n, pairs_total=n * (n - 1) // 2)
            stats.pairs_computed = sum(len(b) for b in blocks)
            stats.pairs_skipped = stats.pairs_total - stats.pairs_computed
            stats.table_pairs = p * (p - 1) // 2
            # Every cross-partition pair beyond the first per key pair is
            # served by the memo.
            stats.table_cache_hits = max(
                0, stats.pairs_skipped - stats.table_pairs)
            stats.n_blocks = p
            stats.largest_block = max((len(m) for m in members),
                                      default=0)
            stats.stored_floats = stats.pairs_computed + p * p
            if before is not None:
                after = pred_info()
                stats.predicate_cache_hits = after.hits - before.hits
                stats.predicate_cache_misses = after.misses - before.misses
            stats.elapsed_seconds = time.perf_counter() - started
            span.set(partitions=p,
                     pairs_computed=stats.pairs_computed,
                     pairs_skipped=stats.pairs_skipped,
                     stored_floats=stats.stored_floats)

        stats.record(registry)
        logger.debug("block-sparse matrix: %s", stats.summary())
        return cls(items, metric, keys, members, packs, blocks, bounds,
                   stats)

    # -- incremental growth -------------------------------------------------

    def insert_row(self, item) -> int:
        """Append one item to its table set's partition, computing no
        distance.

        The partition's pack appends the item's features and ids
        (:meth:`~.kernel.PackedPartition.extend`, which runs the
        oracle's per-predicate helpers for new predicates only); a pack
        the kernel refuses retires, and the partition goes per pair from
        then on.  A block :meth:`compute` stored for the partition is
        dropped: its rows come from the pack when they are asked for
        (:meth:`neighbors`).  A previously unseen table set opens a
        singleton partition, packed with the item, and extends the
        ``d_tables`` bound table by one representative evaluation per
        existing partition.

        A new partition can lower :attr:`exactness_bound`; that changes
        which partitions :meth:`neighbors` visits, never its answer.
        Returns the item's new global index.
        """
        index = self.n
        key = frozenset(item.table_set)
        pid = self._key_to_pid.get(key)
        if pid is None:
            pid = self._open_partition(key, item)
        else:
            pack = self._packs[pid]
            if pack is not None:
                try:
                    pack.extend([item])
                except KernelUnsupported as exc:
                    # The pack no longer covers the partition; retire it
                    # so its rows go straight to the oracle.
                    logger.debug("insert_row extend fallback for "
                                 "partition %d: %s", pid, exc)
                    self._packs[pid] = None
            self._members[pid] = np.append(self._members[pid], index)
            block = self._blocks[pid]
            if block is not None:
                self._blocks[pid] = None
                self.stats.stored_floats -= len(block.condensed)
        self._items.append(item)
        if index >= len(self._pids_buf):
            cap = max(2 * len(self._pids_buf), 4)
            for name in ("_pids_buf", "_local_buf"):
                buf = np.zeros(cap, dtype=np.intp)
                buf[:index] = getattr(self, name)[:index]
                setattr(self, name, buf)
        self._pids_buf[index] = pid
        self._local_buf[index] = len(self._members[pid]) - 1
        self.n = index + 1

        st = self.stats
        st.n_items = self.n
        st.pairs_total = self.n * (self.n - 1) // 2
        st.pairs_skipped = st.pairs_total - st.pairs_computed
        st.largest_block = max(st.largest_block,
                               len(self._members[pid]))
        return index

    def _open_partition(self, key: frozenset, item) -> int:
        """Register a new singleton partition, packed with ``item``,
        extending the bound table with one ``d_tables`` evaluation per
        existing partition."""
        p = len(self._keys)
        bounds = np.zeros((p + 1, p + 1), dtype=float)
        bounds[:p, :p] = self._bounds
        for pid, members in enumerate(self._members):
            value = self._metric.d_tables(self._items[int(members[0])],
                                          item)
            bounds[pid, p] = bounds[p, pid] = value
        self._bounds = bounds
        self._keys.append(key)
        self._key_to_pid[key] = p
        self._members.append(np.array([self.n], dtype=np.intp))
        self._packs[p] = _packed([item], self._metric)
        self._blocks.append(None)
        self.exactness_bound = _exactness_bound(bounds)
        self.stats.n_blocks = p + 1
        self.stats.stored_floats += 2 * p + 1
        return p

    def _own_row(self, i: int) -> np.ndarray:
        """Distances from item ``i`` to every member of its partition,
        in member order (equal table sets, so the metric collapses to
        ``d_conj``): the row of the block :meth:`compute` stored while
        no insert has reached the partition, else the pack's row of
        ``i`` (a band of one), else the metric per pair, the older item
        first."""
        pid, local = int(self._pids[i]), int(self._local[i])
        block = self._blocks[pid]
        if block is not None:
            return block.row(local)
        members = self._members[pid]
        pack = self._packs[pid]
        if pack is not None:
            row = pack.pair_rows(local, np.arange(len(members),
                                                  dtype=np.intp))
            row[local] = 0.0
            return row
        items, item = self._items, self._items[i]
        return np.array([self._metric(items[g], item) if g < i
                         else self._metric(item, items[g]) if g > i
                         else 0.0 for g in members.tolist()],
                        dtype=float)

    def _cross_row(self, i: int, pid: int) -> np.ndarray:
        """Distances from item ``i`` to every member of partition
        ``pid``, another partition than ``i``'s.

        Members older than ``i`` take the ``d_tables`` bound plus the
        partition pack's probe of ``i``, a band of one as in
        :meth:`_own_row`.  Newer members, and every member where the
        kernel refuses, take the metric per pair, the older item first,
        as :meth:`_own_row` does."""
        members = self._members[pid]
        item = self._items[i]
        older = int(np.searchsorted(members, i))
        row = np.empty(len(members))
        conj = None
        pack = self._packs[pid] if older else None
        if pack is not None:
            try:
                conj = pack.probe(item)[:older]
            except KernelUnsupported as exc:
                logger.debug("cross-row probe fallback for partition "
                             "%d: %s", pid, exc)
        if conj is not None:
            row[:older] = self._bounds[self._pids[i], pid] + conj
        else:
            row[:older] = [self._metric(self._items[int(g)], item)
                           for g in members[:older]]
        row[older:] = [self._metric(item, self._items[int(g)])
                       for g in members[older:]]
        return row

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def n_partitions(self) -> int:
        return len(self._keys)

    def partitions(self) -> list[tuple[frozenset, np.ndarray]]:
        """``(table_set, global indices)`` per partition."""
        return [(key, members.copy())
                for key, members in zip(self._keys, self._members)]

    def value(self, i: int, j: int) -> float:
        """Exact distance within a partition; the ``d_tables`` lower
        bound across partitions (exact for threshold queries below
        :attr:`exactness_bound`)."""
        if i == j:
            return 0.0
        pi, pj = self._pids[i], self._pids[j]
        if pi != pj:
            return float(self._bounds[pi, pj])
        block = self._blocks[pi]
        if block is not None:
            return block.value(int(self._local[i]), int(self._local[j]))
        return float(self._own_row(i)[self._local[j]])

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.value(*pair)

    def row(self, i: int) -> np.ndarray:
        """Distances from item ``i`` to every item (length ``n``):
        exact inside ``i``'s partition, lower bounds elsewhere."""
        pid = int(self._pids[i])
        out = self._bounds[pid][self._pids]
        out[self._members[pid]] = self._own_row(i)
        return out

    def neighbors(self, i: int, eps: float) -> list[int]:
        """Indices within radius ``eps`` of item ``i`` (including ``i``),
        ascending, exact at every radius.

        ``i``'s own partition is scanned by its row (:meth:`_own_row`:
        for a grown partition, one band of its pack — O(m_p), the term
        that keeps streaming label repair sublinear in the population).
        A pair whose ``d_tables`` already exceeds ``eps`` is never
        evaluated: ``d ≥ d_tables``, so such a partition cannot hold a
        neighbour.  Below :attr:`exactness_bound` that is every other
        partition.  At or above it, each partition whose bound to
        ``i``'s is within ``eps`` is scanned too, by a computed row
        (:meth:`_cross_row`).
        """
        pid = int(self._pids[i])
        found = self._members[pid][np.flatnonzero(self._own_row(i) <= eps)]
        if eps < self.exactness_bound:
            return list(found)
        near = np.flatnonzero(self._bounds[pid] <= eps)
        rows = [found] + [
            self._members[q][np.flatnonzero(self._cross_row(i, q) <= eps)]
            for q in near.tolist() if q != pid]
        return list(np.sort(np.concatenate(rows)))

    def to_square(self) -> np.ndarray:
        """Expand to the full ``(n, n)`` matrix (bounds off-block)."""
        out = np.empty((self.n, self.n), dtype=float)
        for i in range(self.n):
            out[i] = self.row(i)
        return out

    def submatrix(self, indices: Sequence[int]) -> DistanceMatrix:
        """The matrix restricted to ``indices`` (in the given order).

        Within one partition the result is fully exact — the form the
        partitioned clustering consumes.  Mixed-partition index sets
        inherit the lower-bound semantics of the cross entries.
        """
        idx = np.asarray(indices, dtype=np.intp)
        pids = self._pids[idx]
        if len(idx) and (pids == pids[0]).all():
            block = self._blocks[int(pids[0])]
            if block is not None:
                # Fast path: slice the one stored block directly.
                return block.submatrix(self._local[idx])
        return DistanceMatrix(len(idx), _pairs_of(self, idx))

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``value(rows[k], cols[k])`` for every ``k``: one gather per
        partition the pairs fall in (one row per distinct ``rows`` item
        of a partition without a stored block), the bound table
        elsewhere."""
        first, second = self._pids[rows], self._pids[cols]
        values = self._bounds[first, second]
        inside = first == second
        for pid in np.unique(first[inside]).tolist():
            sel = np.flatnonzero(inside & (first == pid))
            block = self._blocks[pid]
            if block is not None:
                values[sel] = block.take(self._local[rows[sel]],
                                         self._local[cols[sel]])
                continue
            for i in np.unique(rows[sel]).tolist():
                at = sel[rows[sel] == i]
                values[at] = self._own_row(i)[self._local[cols[at]]]
        return values


def compute_matrix(items: Sequence, metric: Metric, *,
                   mode: str = "auto", eps: Optional[float] = None,
                   registry: Optional[metrics.MetricsRegistry] = None):
    """Build a distance matrix in the requested ``mode``.

    ``mode`` — ``"dense"``, ``"kernel"``, or ``"auto"`` (default).  In
    ``auto`` the query radius ``eps`` picks the layout: block-sparse
    whenever the metric decomposes and ``eps`` lies strictly below the
    population's partition exactness bound (``1/2`` for single-table
    FROM sets, ``1/(k+1)`` once ``k``-table joins are present — see
    :func:`~repro.distance.query_distance.partition_exactness_bound`),
    dense otherwise.  ``"kernel"`` forces the block-sparse layout and
    raises when ``eps`` is not below the bound.  The dense matrix holds
    every distance exactly, whatever ``eps``.
    """
    if mode not in MATRIX_MODES:
        raise ValueError(f"mode must be one of {MATRIX_MODES}, "
                         f"got {mode!r}")
    if mode == "auto" and eps is not None and is_decomposed(metric, items):
        bound = partition_exactness_bound(
            item.table_set for item in items)
        logger.debug("auto matrix mode: eps %g vs partition bound %.4g",
                     eps, bound)
        if eps < bound:
            mode = "kernel"
    if mode == "kernel":
        return BlockSparseDistanceMatrix.compute(
            items, metric, cutoff=eps, registry=registry)
    return DistanceMatrix.compute(items, metric, registry=registry)
