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
* exact condensed blocks are stored only *within* partitions, where
  ``d_tables == 0`` and the full metric collapses to ``d_conj``;
* every **cross-partition** lookup is answered from a memoized P×P table
  of ``d_tables`` values — the exact lower bound ``d ≥ d_tables``, which
  any threshold query at a radius below the partition exactness bound
  treats identically to the true distance.

Storage drops from ``n·(n−1)/2`` floats to ``Σ m_p·(m_p−1)/2 + P²`` —
quadratic only in the largest partition.  Validity: every stored entry
is exact except cross-partition ones, which are exact lower bounds no
smaller than :attr:`BlockSparseDistanceMatrix.exactness_bound` (the
population's minimum cross-partition ``d_tables``).  Any threshold
query at ``radius < exactness_bound`` therefore gets exactly the
answers the dense matrix gives from the stored entries alone.
:meth:`~BlockSparseDistanceMatrix.neighbors` is exact at every radius:
at or above the bound it also computes the rows to each partition whose
``d_tables`` bound lies within the radius, and skips every other one,
which cannot hold a neighbour.

The lookup API (``value``/``take``/``row``/``neighbors``/``submatrix``/
``stats``/``__len__``) matches the dense matrix, so dbscan, optics,
single-linkage and partitioned DBSCAN accept either implementation
unchanged.  Every block is filled by the vectorized kernel
(:mod:`repro.distance.kernel`), bitwise equal to per-pair evaluation; a
partition the kernel cannot replay falls back to per-pair metric calls.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from ..obs import get_logger, metrics, trace
from .kernel import KernelUnsupported, PackedPartition, compute_kernel_blocks
from .matrix import (DistanceMatrix, MatrixStats, Metric, _pairs_of,
                     is_decomposed)
from .query_distance import partition_exactness_bound

logger = get_logger(__name__)

#: ``_packs`` sentinel distinguishing "never attempted" from "retired to
#: the per-pair fallback".
_UNSET = object()


class _GrowableBlock:
    """Square in-partition distance block that accepts appended rows.

    Condensed storage cannot grow in place — every index depends on the
    item count — so the first :meth:`BlockSparseDistanceMatrix.insert_row`
    into a partition converts its block to this square capacity-doubled
    form.  Mirrors the :class:`DistanceMatrix` lookups the matrix
    consumes (``value``/``take``/``row``/``submatrix``).
    """

    def __init__(self, dense: DistanceMatrix) -> None:
        m = len(dense)
        cap = max(2 * m, 4)
        self._buf = np.zeros((cap, cap), dtype=float)
        self._buf[:m, :m] = dense.to_square()
        self.n = m

    def __len__(self) -> int:
        return self.n

    @property
    def condensed(self) -> np.ndarray:
        """The condensed upper triangle (copied from the square form)."""
        m = self.n
        return self._buf[:m, :m][np.triu_indices(m, k=1)]

    def append(self, row: np.ndarray) -> None:
        """Adopt the distances from a new item to every existing one."""
        m = self.n
        if len(row) != m:
            raise ValueError(f"row of {len(row)} distances does not "
                             f"match {m} items")
        if m >= self._buf.shape[0]:
            cap = 2 * self._buf.shape[0]
            buf = np.zeros((cap, cap), dtype=float)
            buf[:m, :m] = self._buf[:m, :m]
            self._buf = buf
        self._buf[m, :m] = row
        self._buf[:m, m] = row
        self._buf[m, m] = 0.0
        self.n = m + 1

    def value(self, i: int, j: int) -> float:
        return float(self._buf[i, j])

    def row(self, i: int) -> np.ndarray:
        return self._buf[i, :self.n].copy()

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._buf[rows, cols]

    def submatrix(self, indices: Sequence[int]) -> DistanceMatrix:
        idx = np.asarray(indices, dtype=np.intp)
        return DistanceMatrix.from_square(self._buf[np.ix_(idx, idx)])

#: Modes accepted by :func:`compute_matrix`: ``kernel`` is the
#: block-sparse layout, ``dense`` the full :class:`DistanceMatrix`, and
#: ``auto`` lets ``eps`` pick between them.
MATRIX_MODES = ("auto", "dense", "kernel")


class BlockSparseDistanceMatrix:
    """Partitioned condensed distance matrix with bound-valued cross blocks.

    Obtain one via :meth:`compute`.  The constructor adopts existing
    storage: ``members`` lists the global item indices of each partition
    (covering ``0..n-1`` exactly once), ``blocks`` the matching condensed
    value arrays, and ``bounds`` the symmetric P×P ``d_tables`` table
    (zero diagonal).
    """

    def __init__(self, n: int, keys: Sequence[frozenset],
                 members: Sequence[Sequence[int]],
                 blocks: Sequence[np.ndarray],
                 bounds: np.ndarray,
                 stats: Optional[MatrixStats] = None) -> None:
        if not (len(keys) == len(members) == len(blocks)):
            raise ValueError(
                f"{len(keys)} keys, {len(members)} member lists and "
                f"{len(blocks)} blocks do not align")
        self.n = n
        self._keys = [frozenset(key) for key in keys]
        self._members = [np.asarray(m, dtype=np.intp) for m in members]
        self._blocks = [DistanceMatrix(len(m), block)
                        for m, block in zip(self._members, blocks)]
        bounds = np.asarray(bounds, dtype=float)
        p = len(self._keys)
        if bounds.shape != (p, p):
            raise ValueError(f"bounds shape {bounds.shape} does not "
                             f"match {p} partitions")
        self._bounds = bounds

        self._pids_buf = np.full(n, -1, dtype=np.intp)
        self._local_buf = np.zeros(n, dtype=np.intp)
        for pid, m in enumerate(self._members):
            self._pids_buf[m] = pid
            self._local_buf[m] = np.arange(len(m), dtype=np.intp)
        if n and int(self._pids_buf.min()) < 0:
            raise ValueError("partitions do not cover every item")

        if p >= 2:
            off_diagonal = bounds[~np.eye(p, dtype=bool)]
            self.exactness_bound = float(off_diagonal.min())
        else:
            self.exactness_bound = math.inf
        self.stats = stats or self._default_stats()
        self._key_to_pid = {key: pid
                            for pid, key in enumerate(self._keys)}
        #: the items and the metric :meth:`compute` was given, retained
        #: so :meth:`insert_row` and the cross rows of :meth:`neighbors`
        #: can evaluate new distances; ``None`` for constructor-adopted
        #: matrices, which therefore cannot grow.
        self._items: Optional[list] = None
        self._metric: Optional[Metric] = None
        #: per-partition :class:`~.kernel.PackedPartition` cache (see
        #: :meth:`_pack`; ``None`` = retired to the per-pair oracle).
        self._packs: dict[int, Optional[PackedPartition]] = {}

    @property
    def _pids(self) -> np.ndarray:
        return self._pids_buf[:self.n]

    @property
    def _local(self) -> np.ndarray:
        return self._local_buf[:self.n]

    def _default_stats(self) -> MatrixStats:
        n = self.n
        computed = sum(len(b.condensed) for b in self._blocks)
        return MatrixStats(
            n_items=n, pairs_total=n * (n - 1) // 2,
            pairs_computed=computed,
            pairs_skipped=n * (n - 1) // 2 - computed,
            n_blocks=len(self._blocks),
            largest_block=max((len(m) for m in self._members),
                              default=0),
            stored_floats=computed + len(self._blocks) ** 2)

    # -- construction -------------------------------------------------------

    @classmethod
    def compute(cls, items: Sequence, metric: Metric, *,
                cutoff: Optional[float] = None,
                registry: Optional[metrics.MetricsRegistry] = None,
                store=None, store_token: Optional[str] = None,
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
        registry).  Blocks come from the vectorized kernel
        (:func:`~.kernel.compute_kernel_blocks`); partitions it cannot
        replay fall back to per-pair metric calls, so every value is
        bitwise the per-pair one.

        ``store`` (an :class:`~repro.store.AreaStore`) spills every
        computed in-partition condensed block to an mmap-able file
        keyed by partition *content* (table set + ordered member
        fingerprint digests + ``store_token``) and reloads matching
        blocks on later runs instead of recomputing them.
        ``store_token`` must capture everything else that shapes the
        distance values (metric resolution, statistics provenance) so
        a parameter change misses the cache rather than serving stale
        distances.  The P×P ``d_tables`` bound table is always
        recomputed — it is O(P²) for a handful of partitions.
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
                if p >= 2:
                    exactness = float(
                        bounds[~np.eye(p, dtype=bool)].min())
                else:
                    exactness = math.inf
                if cutoff is not None and cutoff >= exactness:
                    raise ValueError(
                        f"cutoff {cutoff:g} is not below the partition "
                        f"exactness bound {exactness:.4g}: cross-"
                        f"partition entries would no longer answer "
                        f"threshold queries exactly; use the dense "
                        f"DistanceMatrix")

            stats = MatrixStats(n_items=n, pairs_total=n * (n - 1) // 2)

            # Store-backed reuse: a partition whose content key matches
            # a persisted block skips computation entirely.
            cached: dict[int, np.ndarray] = {}
            partition_keys: Optional[list[str]] = None
            if store is not None:
                from ..store.codec import block_key as content_key
                from ..store.codec import fingerprint_digest
                digest_memo: dict[int, bytes] = {}

                def digest_of(area) -> bytes:
                    got = digest_memo.get(id(area))
                    if got is None:
                        got = fingerprint_digest(area)
                        digest_memo[id(area)] = got
                    return got

                partition_keys = [
                    content_key(key, [digest_of(items[i]) for i in m],
                                store_token)
                    for key, m in zip(keys, members)]
                for bi, block_id in enumerate(partition_keys):
                    loaded = store.blocks.load(block_id)
                    m = len(members[bi])
                    if loaded is not None \
                            and len(loaded) == m * (m - 1) // 2:
                        cached[bi] = np.asarray(loaded, dtype=float)

            pending = [bi for bi in range(p) if bi not in cached]
            pending_members = [members[bi] for bi in pending]
            with trace.span("fill", partitions=p, reloaded=len(cached)):
                raw_blocks = []
                if pending:
                    raw_blocks, kernel_stats = compute_kernel_blocks(
                        items, metric, pending_members)
                    kernel_stats.record(registry)
                computed = {bi: np.asarray(raw, dtype=float)
                            for bi, raw in zip(pending, raw_blocks)}
                blocks = [cached[bi] if bi in cached else computed[bi]
                          for bi in range(p)]
            if store is not None:
                for bi in pending:
                    store.blocks.save(partition_keys[bi], blocks[bi])
                store.record(registry)

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
        matrix = cls(n, keys, members, blocks, bounds, stats)
        matrix._items = list(items)
        matrix._metric = metric
        return matrix

    # -- incremental growth -------------------------------------------------

    def insert_row(self, item) -> int:
        """Append one item, computing only intra-partition distances.

        The affected partition's block gains a row of exact ``d_conj``
        values (via the vectorized kernel —
        :meth:`~.kernel.PackedPartition.extend` plus one ``pair_rows``,
        bitwise-equal to the per-pair oracle — or the per-pair metric
        for a partition the kernel cannot replay); a previously unseen
        table set opens a fresh singleton partition, extending the
        ``d_tables`` bound table by one representative evaluation per
        existing partition.  No cross-partition distance is computed,
        so the cost depends on the affected partition alone: the pack
        appends the new area's features and ids, running the oracle's
        per-predicate helpers for new predicates only, and computes the
        row in one vectorized pass over the partition's ``P``
        predicates, ``C`` clauses and ``m_p`` members —
        ``O(n·(P + C) + L·m_p)`` array work for an area of ``n``
        clauses among areas of up to ``L``.

        A new partition can lower :attr:`exactness_bound`; that changes
        which partitions :meth:`neighbors` visits, never its answer.
        Returns the item's new global index.  Only matrices built by
        :meth:`compute` retain the items and the metric this needs.
        """
        if self._items is None:
            raise ValueError(
                "insert_row requires a matrix built by compute(); "
                "constructor-adopted matrices do not retain their items")
        index = self.n
        key = frozenset(item.table_set)
        pid = self._key_to_pid.get(key)
        row = None
        if pid is None:
            pid = self._open_partition(key, item)
        else:
            row = self._partition_row(pid, item)
            block = self._blocks[pid]
            if not isinstance(block, _GrowableBlock):
                block = _GrowableBlock(block)
                self._blocks[pid] = block
            block.append(row)
            self._members[pid] = np.append(self._members[pid], index)
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
        if row is not None:
            st.pairs_computed += len(row)
            st.stored_floats += len(row)
        st.pairs_skipped = st.pairs_total - st.pairs_computed
        st.largest_block = max(st.largest_block,
                               len(self._members[pid]))
        return index

    def _open_partition(self, key: frozenset, item) -> int:
        """Register a new singleton partition, extending the bound table
        with one ``d_tables`` evaluation per existing partition."""
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
        self._blocks.append(
            DistanceMatrix(1, np.zeros(0, dtype=float)))
        if p >= 1:
            off_diagonal = bounds[~np.eye(p + 1, dtype=bool)]
            self.exactness_bound = float(off_diagonal.min())
        self.stats.n_blocks = p + 1
        self.stats.stored_floats += 2 * p + 1
        return p

    def _pack(self, pid: int) -> Optional[PackedPartition]:
        """Partition ``pid``'s kernel pack: packed on first use, then
        kept holding every member by :meth:`_partition_row`; ``None``
        once the kernel refused it."""
        pack = self._packs.get(pid, _UNSET)
        if pack is _UNSET:
            try:
                pack = PackedPartition(
                    [self._items[int(g)] for g in self._members[pid]],
                    self._metric)
            except KernelUnsupported as exc:
                logger.debug("pack fallback for partition %d: %s",
                             pid, exc)
                pack = None
            self._packs[pid] = pack
        return pack

    def _partition_row(self, pid: int, item) -> np.ndarray:
        """Distances from ``item`` to every current member of partition
        ``pid`` (equal table sets, so the metric collapses to
        ``d_conj``)."""
        pack = self._pack(pid)
        if pack is not None:
            try:
                pack.extend([item])
                return pack.pair_rows(
                    pack.n_areas - 1,
                    np.arange(pack.n_areas - 1, dtype=np.intp))
            except KernelUnsupported as exc:
                # The pack no longer covers the partition; retire it
                # so later inserts go straight to the oracle.
                logger.debug("insert_row extend fallback for "
                             "partition %d: %s", pid, exc)
                self._packs[pid] = None
        return np.array([self._metric(self._items[int(g)], item)
                         for g in self._members[pid]], dtype=float)

    def _cross_row(self, i: int, pid: int) -> np.ndarray:
        """Distances from item ``i`` to every member of partition
        ``pid``, another partition than ``i``'s.

        Members older than ``i`` take the ``d_tables`` bound plus the
        partition pack's probe of ``i`` — the orientation of an insert
        row, whose new item is the band.  Newer members, and every
        member where the kernel refuses, take the metric per pair, the
        older item first, as :meth:`_partition_row` does."""
        members = self._members[pid]
        item = self._items[i]
        older = int(np.searchsorted(members, i))
        row = np.empty(len(members))
        conj = None
        pack = self._pack(pid) if older else None
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
        """``(table_set, global indices)`` per stored block."""
        return [(key, members.copy())
                for key, members in zip(self._keys, self._members)]

    def value(self, i: int, j: int) -> float:
        """Exact distance within a partition; the ``d_tables`` lower
        bound across partitions (exact for threshold queries below
        :attr:`exactness_bound`)."""
        if i == j:
            return 0.0
        pi, pj = self._pids[i], self._pids[j]
        if pi == pj:
            return self._blocks[pi].value(int(self._local[i]),
                                          int(self._local[j]))
        return float(self._bounds[pi, pj])

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.value(*pair)

    def row(self, i: int) -> np.ndarray:
        """Distances from item ``i`` to every item (length ``n``):
        exact inside ``i``'s partition, lower bounds elsewhere."""
        pid = int(self._pids[i])
        out = self._bounds[pid][self._pids]
        members = self._members[pid]
        out[members] = self._blocks[pid].row(int(self._local[i]))
        return out

    def neighbors(self, i: int, eps: float) -> list[int]:
        """Indices within radius ``eps`` of item ``i`` (including ``i``),
        ascending, exact at every radius.

        A pair whose ``d_tables`` already exceeds ``eps`` is never
        evaluated: ``d ≥ d_tables``, so such a partition cannot hold a
        neighbour.  Below :attr:`exactness_bound` that is every other
        partition, and the scan confines itself to ``i``'s — O(m_p),
        the term that keeps streaming label repair sublinear in the
        population.  At or above it, each partition whose bound to
        ``i``'s is within ``eps`` is scanned too, by a computed row
        (:meth:`_cross_row`); that needs a matrix built by
        :meth:`compute`.
        """
        pid = int(self._pids[i])
        members = self._members[pid]
        block_row = self._blocks[pid].row(int(self._local[i]))
        found = members[np.flatnonzero(block_row <= eps)]
        if eps < self.exactness_bound:
            return list(found)
        if self._items is None:
            raise ValueError(
                f"radius {eps:g} reaches other partitions, whose rows "
                f"need a matrix built by compute()")
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
            # Fast path: slice the one block directly.
            return self._blocks[int(pids[0])].submatrix(self._local[idx])
        return DistanceMatrix(len(idx), _pairs_of(self, idx))

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``value(rows[k], cols[k])`` for every ``k``: one gather per
        partition the pairs fall in, the bound table elsewhere."""
        first, second = self._pids[rows], self._pids[cols]
        values = self._bounds[first, second]
        inside = first == second
        for pid in np.unique(first[inside]).tolist():
            sel = np.flatnonzero(inside & (first == pid))
            values[sel] = self._blocks[pid].take(self._local[rows[sel]],
                                                 self._local[cols[sel]])
        return values


def compute_matrix(items: Sequence, metric: Metric, *,
                   mode: str = "auto", eps: Optional[float] = None,
                   registry: Optional[metrics.MetricsRegistry] = None,
                   store=None, store_token: Optional[str] = None):
    """Build a distance matrix in the requested ``mode``.

    ``mode`` — ``"dense"``, ``"kernel"``, or ``"auto"`` (default).  In
    ``auto`` the query radius ``eps`` picks the layout: block-sparse
    whenever the metric decomposes and ``eps`` lies strictly below the
    population's partition exactness bound (``1/2`` for single-table
    FROM sets, ``1/(k+1)`` once ``k``-table joins are present — see
    :func:`~repro.distance.query_distance.partition_exactness_bound`),
    dense otherwise.  ``"kernel"`` forces the block-sparse layout and
    raises when ``eps`` is not below the bound.  The dense matrix holds
    every distance exactly, whatever ``eps``.  ``store``/``store_token``
    persist and reload block-sparse blocks (see
    :meth:`BlockSparseDistanceMatrix.compute`).
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
            items, metric, cutoff=eps, registry=registry, store=store,
            store_token=store_token)
    return DistanceMatrix.compute(items, metric, registry=registry)
