"""Incremental weighted DBSCAN over a streaming access-area population.

The paper's stream scenario ("extract the information from an incoming
stream of logged queries, to detect changes in this data stream and to
notify the system operator") needs live cluster labels, but a batch
:class:`~repro.clustering.dbscan.DBSCAN` re-run per statement is
O(n²) — hopeless at SkyServer volumes.  This module maintains the exact
batch answer incrementally, exploiting the same structure the batch
pipeline does:

* **Interned arrivals are O(1).**  SkyServer logs are dominated by bot
  and template repeats, so most arrivals hit the fingerprint pool
  (``BENCH_interning.json``: 33–133× dedup).  A hit only bumps the
  representative's weight; the sole possible structural consequence is
  a *core promotion* inside its eps-neighbourhood, repaired locally.
* **New areas touch one partition.**  A genuinely new area inserts one
  row into the affected partition of the block-sparse distance layout
  (:meth:`~repro.distance.block_sparse.BlockSparseDistanceMatrix.insert_row`)
  — no cross-partition distance is ever computed — and label repair is
  confined to the new point's eps-neighbourhood.  Radii too large for
  partitioning (``eps >= 1/2``) use a dense growable matrix instead.

**Exact parity, not approximation.**  Weighted DBSCAN's labelling is a
pure function of (core set, eps-adjacency), both of which this class
maintains exactly:

* ``i`` is *core* iff the total weight of its (self-inclusive)
  eps-neighbourhood is ≥ ``min_pts``; weights only change by the
  arriving delta, so core status is repaired by scanning exactly the
  neighbourhoods the delta touched.
* Batch cluster ids number the core-graph components by their minimal
  core index (a component's cores stay unvisited until its smallest
  index is scanned).  We keep the components in a union-find carrying
  ``comp_min`` and rank components by it.
* A batch border point takes the label of the *first* expansion that
  reaches it, i.e. the minimal cluster id among its core neighbours;
  non-cores with no core neighbour are ``NOISE``.

Deriving labels from that canonical form makes :meth:`labels` equal to
``DBSCAN.fit`` output *exactly* — not merely up to renumbering — which
the property tests pin after every stream prefix.

Arrivals only add weight and edges, so the stream case needs only
promotions and merges.  :meth:`remove` (retracting a duplicate, e.g. a
revoked statement) is the converse: demotions trigger a split re-check
bounded by the demoted core's component, never the population.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..obs import get_logger, metrics, trace
from .dbscan import NOISE

logger = get_logger(__name__)

#: ``eps`` below this radius clusters on the block-sparse layout, at or
#: above it on the dense one.  ``1/2`` is the partition exactness bound
#: of one- and two-table FROM sets (see
#: :func:`~repro.distance.query_distance.partition_exactness_bound`);
#: below it, an arrival whose table set would lower the live bound to
#: ``eps`` is refused before any mutation.
SPARSE_BELOW = 0.5


@dataclass
class IncrementalUpdate:
    """What one arrival (or removal) did to the clustering.

    ``index`` is the unique-area index of the affected representative,
    ``label`` its canonical cluster label after the update.  The repair
    counters let callers (and the stream monitor) distinguish a quiet
    arrival — weight bump or new noise/border point — from one that
    changed the cluster *structure* (core set or component partition).
    """

    index: int
    label: int
    new_point: bool
    interned_hit: bool
    promotions: int = 0
    demotions: int = 0
    merges: int = 0
    splits: int = 0
    new_clusters: int = 0

    @property
    def structure_changed(self) -> bool:
        return bool(self.promotions or self.demotions or self.merges
                    or self.splits or self.new_clusters)


class _DenseBackend:
    """Growable symmetric distance matrix via per-pair metric calls.

    O(n) metric evaluations per insert, valid at any ``eps`` (no
    partition exactness precondition).  Like the dense matrix's
    ``cutoff`` skip, a pair whose ``d_tables`` lower bound already
    exceeds ``eps`` stores that bound instead of the full distance, so
    :meth:`neighbors` is exact at radii up to ``eps``."""

    def __init__(self, metric, eps: float):
        self._metric = metric
        self._eps = eps
        self._items: list = []
        self._buf = np.zeros((4, 4), dtype=float)
        self.n = 0

    def insert(self, area) -> int:
        i = self.n
        if i >= self._buf.shape[0]:
            cap = max(2 * self._buf.shape[0], 4)
            buf = np.zeros((cap, cap), dtype=float)
            buf[:i, :i] = self._buf[:i, :i]
            self._buf = buf
        row = np.array([self._distance(old, area) for old in self._items],
                       dtype=float)
        self._buf[i, :i] = row
        self._buf[:i, i] = row
        self._buf[i, i] = 0.0
        self._items.append(area)
        self.n = i + 1
        return i

    def _distance(self, old, area) -> float:
        bound = self._metric.d_tables(old, area)
        return bound if bound > self._eps else self._metric(old, area)

    def neighbors(self, i: int, eps: float) -> list[int]:
        return [int(j) for j in
                np.flatnonzero(self._buf[i, :self.n] <= eps)]


class _SparseBackend:
    """Partition-pruned backend over ``BlockSparseDistanceMatrix``.

    Per-insert cost is intra-partition only; ``neighbors`` scans just
    the point's partition.  Requires ``eps`` strictly below the
    partition exactness bound — ``insert`` refuses (pre-mutation) any
    area whose new partition would drop the bound to ``eps``."""

    def __init__(self, metric, eps: float):
        from ..distance.block_sparse import BlockSparseDistanceMatrix
        self._matrix = BlockSparseDistanceMatrix.compute([], metric)
        self._metric = metric
        self._eps = eps

    def insert(self, area) -> int:
        return self._matrix.insert_row(area, self._metric,
                                       max_radius=self._eps)

    def neighbors(self, i: int, eps: float) -> list[int]:
        return self._matrix.neighbors(i, eps)


class IncrementalDBSCAN:
    """Live weighted DBSCAN labels under streaming arrivals.

    Parameters mirror :class:`~repro.clustering.dbscan.DBSCAN`
    (``eps``, ``min_pts``); ``metric`` is the decomposed query metric.
    With ``intern=True`` (default) arrivals are pooled by canonical
    fingerprint, so repeats of an already-seen area never touch the
    distance backend.  ``eps`` picks the neighbourhood layout, named by
    :attr:`backend_name`: ``"sparse"`` (the block-sparse partition
    matrix) below :data:`SPARSE_BELOW`, ``"dense"`` (per-pair metric
    calls, valid at any radius) at or above it.

    After any sequence of :meth:`add` calls, :meth:`labels` equals the
    output of a from-scratch ``DBSCAN(eps, min_pts).fit(unique_areas,
    weights=weights)`` — exactly, including numbering.
    """

    def __init__(self, metric, *, eps: float, min_pts: int = 5,
                 intern: bool = True,
                 registry: Optional[metrics.MetricsRegistry] = None):
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = float(min_pts)
        self.intern = bool(intern)
        sparse = self.eps < SPARSE_BELOW
        self.backend_name = "sparse" if sparse else "dense"
        self._registry = registry or metrics.get_registry()
        self._backend = (_SparseBackend if sparse
                         else _DenseBackend)(metric, self.eps)
        # Population state (indexed by unique-area index).
        self._index_of: dict = {}
        self._areas: list = []
        self._weights: list[float] = []
        self._adj: list[list[int]] = []      # self-inclusive eps-lists
        self._mass: list[float] = []         # Σ weights over _adj[i]
        self._core: list[bool] = []
        # Union-find over core points, carrying each component's size
        # and minimal member index (the canonical cluster order key).
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}
        self._comp_min: dict[int, int] = {}  # keyed by root only
        # Arrival log: unique index per source statement, in order.
        self._inverse: list[int] = []
        self.arrivals = 0
        self.interned_hits = 0

    # -- population views ---------------------------------------------

    @property
    def n_unique(self) -> int:
        return len(self._areas)

    @property
    def n_clusters(self) -> int:
        return len(self._comp_min)

    def areas(self) -> list:
        """Unique representatives in first-arrival order."""
        return list(self._areas)

    def weights(self) -> list[float]:
        return list(self._weights)

    def inverse(self) -> list[int]:
        """Unique index of each arrival, in arrival order (the
        expansion map of :func:`~repro.core.pipeline.expand_labels`)."""
        return list(self._inverse)

    def index_of(self, area) -> Optional[int]:
        """Unique-area index of ``area`` by canonical fingerprint, or
        ``None`` when it was never (successfully) added.  Requires
        ``intern=True`` — without interning, equal areas are distinct
        points and the lookup is ambiguous."""
        if not self.intern:
            raise ValueError("index_of() requires intern=True")
        return self._index_of.get(area)

    # -- union-find ---------------------------------------------------

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        self._comp_min[ra] = min(self._comp_min[ra],
                                 self._comp_min.pop(rb))
        return True

    # -- updates ------------------------------------------------------

    def add(self, area, count: int = 1) -> IncrementalUpdate:
        """Observe ``count`` arrivals of ``area``; repair labels.

        Interned repeats bump the representative's weight (O(1) plus
        any core promotions in its neighbourhood); new areas insert one
        backend row and wire adjacency for their eps-neighbourhood.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        started = time.perf_counter()
        with trace.span("incremental_add", backend=self.backend_name):
            self.arrivals += count
            idx = self._index_of.get(area) if self.intern else None
            if idx is not None:
                self.interned_hits += count
                update = self._bump(idx, float(count))
            else:
                update = self._insert(area, float(count))
            self._inverse.extend([update.index] * count)
        self._record(update, time.perf_counter() - started)
        return update

    def remove(self, area, count: int = 1) -> IncrementalUpdate:
        """Retract ``count`` earlier arrivals of ``area``.

        Requires ``intern=True`` (the representative is looked up by
        fingerprint) and must leave at least one arrival in place: the
        growable distance backends only ever append, so full point
        deletion is out of scope — decrementing to zero would desync
        the adjacency index.  Demotions trigger a split re-check
        bounded by the demoted core's component.
        """
        if not self.intern:
            raise ValueError("remove() requires intern=True; without "
                             "interning duplicate arrivals are distinct "
                             "points and retraction is ambiguous")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        idx = self._index_of.get(area)
        if idx is None:
            raise KeyError("area was never added")
        if count >= self._weights[idx]:
            raise ValueError(
                f"cannot retract {count} of {self._weights[idx]:g} "
                f"arrivals: full deletion is unsupported (the distance "
                f"backends are append-only)")
        started = time.perf_counter()
        with trace.span("incremental_remove",
                        backend=self.backend_name):
            self.arrivals -= count
            delta = float(count)
            self._weights[idx] -= delta
            for j in self._adj[idx]:
                self._mass[j] -= delta
            demoted = [j for j in self._adj[idx]
                       if self._core[j] and self._mass[j] < self.min_pts]
            splits = 0
            clusters_before = self.n_clusters
            for d in demoted:
                splits += self._demote(d)
            update = IncrementalUpdate(
                index=idx, label=self.label_of(idx), new_point=False,
                interned_hit=True, demotions=len(demoted),
                splits=splits,
                new_clusters=max(0, self.n_clusters - clusters_before))
            # Keep the arrival log consistent: drop the retracted
            # occurrences (latest first) so expanded_labels() still
            # mirrors the surviving arrival sequence.
            remaining = count
            for pos in range(len(self._inverse) - 1, -1, -1):
                if self._inverse[pos] == idx:
                    del self._inverse[pos]
                    remaining -= 1
                    if remaining == 0:
                        break
        self._record(update, time.perf_counter() - started)
        return update

    def _bump(self, idx: int, delta: float) -> IncrementalUpdate:
        self._weights[idx] += delta
        for j in self._adj[idx]:
            self._mass[j] += delta
        update = IncrementalUpdate(index=idx, label=NOISE,
                                   new_point=False, interned_hit=True)
        self._promote_eligible(self._adj[idx], update)
        update.label = self.label_of(idx)
        return update

    def _insert(self, area, weight: float) -> IncrementalUpdate:
        idx = self._backend.insert(area)
        assert idx == len(self._areas)
        self._areas.append(area)
        if self.intern:
            self._index_of[area] = idx
        self._weights.append(weight)
        neighbors = self._backend.neighbors(idx, self.eps)
        self._adj.append([int(j) for j in neighbors])
        self._mass.append(sum(self._weights[j] for j in self._adj[idx]))
        self._core.append(False)
        for j in self._adj[idx]:
            if j != idx:
                self._adj[j].append(idx)
                self._mass[j] += weight
        update = IncrementalUpdate(index=idx, label=NOISE,
                                   new_point=True, interned_hit=False)
        self._promote_eligible(self._adj[idx], update)
        update.label = self.label_of(idx)
        return update

    def _promote_eligible(self, candidates: Sequence[int],
                          update: IncrementalUpdate) -> None:
        """Promote every non-core in ``candidates`` whose neighbourhood
        mass now reaches ``min_pts``, folding it into the core graph."""
        for p in candidates:
            if self._core[p] or self._mass[p] < self.min_pts:
                continue
            self._core[p] = True
            self._parent[p] = p
            self._size[p] = 1
            self._comp_min[p] = p
            joined = 0
            for k in self._adj[p]:
                if k != p and self._core[k] and self._union(p, k):
                    joined += 1
            update.promotions += 1
            if joined == 0:
                update.new_clusters += 1
            else:
                # The first union attaches the fresh singleton; each
                # further one fuses two pre-existing components.
                update.merges += joined - 1

    def _demote(self, d: int) -> int:
        """Demote core ``d``; re-check its component for splits.

        The affected set — cores formerly connected through ``d`` — is
        found by BFS from ``d``'s core neighbours over the core graph,
        so the cost is bounded by ``d``'s component size, never the
        population.  Returns the number of extra components created.
        """
        self._core[d] = False
        seeds = [k for k in self._adj[d] if k != d and self._core[k]]
        # Every former component member minus d reaches some seed
        # without passing through d (the hop before d is a seed), so
        # this BFS covers the whole affected set.
        affected: set[int] = set()
        frontier = [s for s in seeds]
        affected.update(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for k in self._adj[x]:
                    if k != x and self._core[k] and k not in affected:
                        affected.add(k)
                        nxt.append(k)
            frontier = nxt
        old_root = self._find(d)
        self._comp_min.pop(old_root, None)
        self._size.pop(old_root, None)
        self._parent.pop(d, None)
        self._size.pop(d, None)
        # Rebuild union-find entries for just the affected set.
        for x in affected:
            self._parent[x] = x
            self._size[x] = 1
            self._comp_min[x] = x
        for x in affected:
            for k in self._adj[x]:
                if k != x and self._core[k]:
                    self._union(x, k)
        parts = len({self._find(x) for x in affected})
        return max(0, parts - 1)

    # -- canonical labels ---------------------------------------------

    def labels(self) -> list[int]:
        """Per-unique-area labels, batch-identical (see class doc)."""
        rank = self._ranks()
        out = []
        for i in range(len(self._areas)):
            if self._core[i]:
                out.append(rank[self._find(i)])
            else:
                best = None
                for j in self._adj[i]:
                    if j != i and self._core[j]:
                        r = rank[self._find(j)]
                        if best is None or r < best:
                            best = r
                out.append(NOISE if best is None else best)
        return out

    def label_of(self, i: int) -> int:
        """Canonical label of unique area ``i`` — O(deg(i) + C)."""
        if self._core[i]:
            key = self._comp_min[self._find(i)]
        else:
            mins = [self._comp_min[self._find(j)] for j in self._adj[i]
                    if j != i and self._core[j]]
            if not mins:
                return NOISE
            key = min(mins)
        return sum(1 for v in self._comp_min.values() if v < key)

    def expanded_labels(self) -> list[int]:
        """Per-arrival labels in arrival order (interned mode)."""
        labels = self.labels()
        return [labels[i] for i in self._inverse]

    def _ranks(self) -> dict[int, int]:
        ordered = sorted(self._comp_min.items(), key=lambda kv: kv[1])
        return {root: rank for rank, (root, _) in enumerate(ordered)}

    # -- telemetry ----------------------------------------------------

    def _record(self, update: IncrementalUpdate,
                elapsed: float) -> None:
        reg = self._registry
        reg.counter("repro_incremental_arrivals_total").inc()
        if update.interned_hit and not update.new_point:
            reg.counter("repro_incremental_hits_total").inc()
        if update.new_point:
            reg.counter("repro_incremental_inserts_total").inc()
        for name, value in (("promotions", update.promotions),
                            ("demotions", update.demotions),
                            ("merges", update.merges),
                            ("splits", update.splits),
                            ("new_clusters", update.new_clusters)):
            if value:
                reg.counter(f"repro_incremental_{name}_total").inc(value)
        reg.histogram("repro_incremental_update_seconds").observe(
            elapsed)
        reg.gauge("repro_incremental_population").set(self.n_unique)
        reg.gauge("repro_incremental_clusters").set(self.n_clusters)

    def summary(self) -> str:
        hit_pct = (100.0 * self.interned_hits / self.arrivals
                   if self.arrivals else 0.0)
        return (f"{self.arrivals} arrivals -> {self.n_unique} unique "
                f"({hit_pct:.1f}% interned), {self.n_clusters} "
                f"clusters [{self.backend_name}]")
