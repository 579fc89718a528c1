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
  (``perfbench``'s ``serve_repeat`` ledger: ``incremental.hit_ratio``
  0.94).  A hit only bumps the representative's weight; the sole
  possible structural consequence is a *core promotion* inside its
  eps-neighbourhood, repaired locally.
* **New areas touch one partition.**  A genuinely new area is appended
  to the affected partition of the block-sparse distance layout
  (:meth:`~repro.distance.block_sparse.BlockSparseDistanceMatrix.insert_row`,
  which stores no distance) and label repair is confined to the new
  point's eps-neighbourhood.  Its neighbourhood
  (:meth:`~repro.distance.block_sparse.BlockSparseDistanceMatrix.neighbors`)
  reaches only the partitions whose ``d_tables`` bound lies within
  ``eps`` — below the population's partition exactness bound, its own
  partition alone — so every radius runs on the one layout and no
  arrival is ever turned away.

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

Arrivals only add weight and edges, so repair needs only promotions
and merges: a core never demotes and a component never splits.  The
clusterer holds per-unique-area state only; an arrival's label is in
the :class:`IncrementalUpdate` that :meth:`~IncrementalDBSCAN.add`
returns.

**Labels kept between structure changes.**  Without a promotion the
core set and the components are unchanged, and a non-core arrival is
nobody's core neighbour, so no other label moves: a quiet insert
appends its own label to the kept list and a quiet weight bump leaves
it as it is.  Only a structure change marks the list stale, and
:meth:`~IncrementalDBSCAN.labels` redoes the canonical walk over every
adjacency list only then.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..distance.block_sparse import BlockSparseDistanceMatrix
from ..obs import get_logger, metrics, trace
from .dbscan import NOISE

logger = get_logger(__name__)


@dataclass
class IncrementalUpdate:
    """What one arrival did to the clustering.

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
    merges: int = 0
    new_clusters: int = 0

    @property
    def structure_changed(self) -> bool:
        return bool(self.promotions or self.merges or self.new_clusters)


class IncrementalDBSCAN:
    """Live weighted DBSCAN labels under streaming arrivals.

    Parameters mirror :class:`~repro.clustering.dbscan.DBSCAN`
    (``eps``, ``min_pts``); ``metric`` is the decomposed query metric.
    Arrivals are pooled by canonical fingerprint, so repeats of an
    already-seen area never touch the distance layout, a
    :class:`~repro.distance.block_sparse.BlockSparseDistanceMatrix`
    grown by one area per unique area.

    After any sequence of :meth:`add` calls, :meth:`labels` equals the
    output of a from-scratch ``DBSCAN(eps, min_pts).fit(unique_areas,
    weights=weights)`` — exactly, including numbering.
    """

    def __init__(self, metric, *, eps: float, min_pts: int = 5,
                 registry: Optional[metrics.MetricsRegistry] = None):
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = float(min_pts)
        #: the decomposed query metric every distance is measured with.
        self.metric = metric
        # Instruments are bound once: a registry lookup takes its lock
        # and builds a label key, which every arrival would pay.
        registry = registry or metrics.get_registry()
        self._arrivals_total = registry.counter(
            "repro_incremental_arrivals_total")
        self._hits_total = registry.counter("repro_incremental_hits_total")
        self._inserts_total = registry.counter(
            "repro_incremental_inserts_total")
        self._repair_totals = tuple(
            (name, registry.counter(f"repro_incremental_{name}_total"))
            for name in ("promotions", "merges", "new_clusters"))
        self._update_seconds = registry.histogram(
            "repro_incremental_update_seconds")
        self._population = registry.gauge("repro_incremental_population")
        self._clusters = registry.gauge("repro_incremental_clusters")
        self._matrix = BlockSparseDistanceMatrix.compute([], metric)
        # Population state (indexed by unique-area index); _index_of is
        # the fingerprint index that pools arrivals.
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
        # The canonical labels, kept between structure changes (see the
        # module doc); None after a change, until labels() rebuilds them.
        self._labels: Optional[list[int]] = []
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

    def area(self, i: int):
        """Unique representative ``i`` — O(1), where :meth:`areas`
        copies the whole list."""
        return self._areas[i]

    def weights(self) -> list[float]:
        return list(self._weights)

    def index_of(self, area) -> Optional[int]:
        """Unique-area index of ``area`` by canonical fingerprint, or
        ``None`` when it was never (successfully) added."""
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
        any core promotions in its neighbourhood); new areas join their
        partition of the matrix, whose pack computes their one row, and
        wire adjacency for their eps-neighbourhood.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        started = time.perf_counter()
        with trace.span("incremental_add"):
            self.arrivals += count
            idx = self._index_of.get(area)
            if idx is not None:
                self.interned_hits += count
                update = self._bump(idx, float(count))
            else:
                update = self._insert(area, float(count))
            if update.structure_changed:
                self._labels = None
            elif update.new_point and self._labels is not None:
                self._labels.append(update.label)
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
        idx = self._matrix.insert_row(area)
        assert idx == len(self._areas)
        self._areas.append(area)
        self._index_of[area] = idx
        self._weights.append(weight)
        neighbors = self._matrix.neighbors(idx, self.eps)
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

    # -- canonical labels ---------------------------------------------

    def labels(self) -> list[int]:
        """Per-unique-area labels, batch-identical (see class doc).

        A fresh list; the walk over every adjacency list runs only after
        a structure change (see the module doc).
        """
        if self._labels is None:
            self._labels = self._canonical_labels()
        return list(self._labels)

    def _canonical_labels(self) -> list[int]:
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

    def _ranks(self) -> dict[int, int]:
        ordered = sorted(self._comp_min.items(), key=lambda kv: kv[1])
        return {root: rank for rank, (root, _) in enumerate(ordered)}

    # -- telemetry ----------------------------------------------------

    def _record(self, update: IncrementalUpdate,
                elapsed: float) -> None:
        self._arrivals_total.inc()
        if update.interned_hit and not update.new_point:
            self._hits_total.inc()
        if update.new_point:
            self._inserts_total.inc()
        for name, counter in self._repair_totals:
            value = getattr(update, name)
            if value:
                counter.inc(value)
        self._update_seconds.observe(elapsed)
        self._population.set(self.n_unique)
        self._clusters.set(self.n_clusters)

    def summary(self) -> str:
        hit_pct = (100.0 * self.interned_hits / self.arrivals
                   if self.arrivals else 0.0)
        return (f"{self.arrivals} arrivals -> {self.n_unique} unique "
                f"({hit_pct:.1f}% interned), {self.n_clusters} "
                f"clusters")
