"""Interest-area query recommendation (QueRIE-style, on access areas).

The paper's related work covers QueRIE — "designed to work directly with
SkyServer query logs" — and its own expert feedback notes the mined
areas "might not only be useful for the data owner, but for users as
well: They help to explore the database ... offer orientation in the
sense 'Which parts of the data do others deem important?'".

:class:`InterestRecommender` operationalizes that: fitted on the
clustered access areas of the community, it takes a user's query (or its
area) and returns the nearest aggregated interest areas — each with its
popularity, a representative medoid query, and ready-to-run SQL.

Multiplicity matters: SkyServer-style logs collapse 33–133× under the
intern pool, so a cluster of 3 unique areas may stand for 10,000 logged
queries.  :meth:`InterestRecommender.fit` therefore accepts per-area
``weights`` and canonicalizes *every* population — weighted-unique or
expanded — to the same (unique representatives, multiplicities) form
before aggregating, so the two fits are bitwise identical and
``popularity`` always reports the true weighted cardinality.

Distances come from the vectorized kernel
(:class:`~repro.distance.kernel.PackedPartition`), bitwise equal to the
per-pair :class:`QueryDistance`: a medoid reads one kernel block over
its candidates, a refit takes over the previous fit's block of every
cluster whose candidates are unchanged, and a ranking scores a query
against all fitted medoids with one probe of a single medoid pack.
Where the kernel refuses (:class:`KernelUnsupported`), that cluster or
that query is measured per pair by the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.dbscan import DBSCANResult
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor
from ..distance.kernel import KernelUnsupported, PackedPartition
from ..distance.query_distance import QueryDistance, jaccard_distance
from ..schema.statistics import StatisticsCatalog

Distance = Callable[[AccessArea, AccessArea], float]


@dataclass(frozen=True)
class Recommendation:
    """One suggested interest area.

    ``distance`` is ``None`` for cold-start suggestions from
    :meth:`InterestRecommender.popular` — there is no reference query to
    measure from, and a ``NaN`` placeholder would poison any caller
    sorting mixed recommendation lists (``nan`` compares false against
    everything, so sorts silently misplace it).
    """

    aggregated: AggregatedArea
    distance: Optional[float]
    popularity: int  # weighted cluster cardinality (logged queries)
    suggested_sql: str
    medoid: AccessArea

    def describe(self) -> str:
        if self.distance is None:
            return (f"(popular, {self.popularity} queries) "
                    f"{self.aggregated.describe()}")
        return (f"(d={self.distance:.2f}, {self.popularity} queries) "
                f"{self.aggregated.describe()}")


#: Medoid candidates per cluster: its first unique members, which are
#: also the references each candidate is priced against.
MEDOID_CANDIDATES = 25

#: ``block[i, j] = metric(candidates[i], candidates[j])``.
Block = np.ndarray


@dataclass
class _FittedCluster:
    aggregated: AggregatedArea
    medoid: AccessArea
    members: list[AccessArea]
    weights: list[int]
    #: the kernel block over the medoid candidates, which the next refit
    #: takes over while the candidates stay the same; ``None`` when the
    #: metric priced them per pair (or there was a single candidate).
    block: Optional[Block]


@dataclass
class InterestRecommender:
    """Recommends community interest areas near a user's query."""

    stats: StatisticsCatalog
    extractor: Optional[AccessAreaExtractor] = None
    resolution: float = 0.05
    min_cluster_size: int = 5
    _clusters: list[_FittedCluster] = field(default_factory=list,
                                            repr=False)

    def __post_init__(self) -> None:
        self._distance: Distance = QueryDistance(self.stats,
                                                 self.resolution)
        #: the fit's medoid pack, built by the first ranking after a fit
        #: (see :meth:`_medoid_pack`).
        self._ranking: Optional[tuple] = None

    # -- fitting ------------------------------------------------------------

    def fit(self, areas: Sequence[AccessArea],
            clustering: DBSCANResult,
            sigma: float = 3.0,
            weights: Optional[Sequence[int]] = None, *,
            previous: Optional["InterestRecommender"] = None
            ) -> "InterestRecommender":
        """Index the clusters of a finished clustering run.

        ``weights`` — optional positive multiplicities aligned with
        ``areas`` (intern-pool duplicate counts): area ``i`` stands for
        ``weights[i]`` logged queries.  Cluster members are first
        collapsed to their unique representatives (summing
        multiplicities), so ``min_cluster_size``, the 3σ aggregation,
        medoid choice, and ``popularity`` all see the weighted
        population.  Fitting ``u`` unique areas with weights is bitwise
        identical to fitting the expanded ``n``-query population
        unweighted.

        ``previous`` — an earlier fit over the same, unchanged catalog
        and resolution.  Every cluster whose medoid candidates are the
        very same area objects takes over that fit's kernel block
        instead of repacking; distances do not depend on weights, so
        only clusters whose members changed are repacked.  The fit is
        bitwise identical to one without ``previous``, and keeps only
        the blocks it uses.
        """
        if weights is not None and len(weights) != len(areas):
            raise ValueError(f"{len(weights)} weights do not match "
                             f"{len(areas)} areas")
        kept = self._kept_blocks(previous)
        self._clusters = []
        self._ranking = None
        for cluster_id, indices in clustering.clusters().items():
            members = [areas[i] for i in indices]
            raw = ([1] * len(members) if weights is None
                   else [int(weights[i]) for i in indices])
            unique, counts = _collapse(members, raw)
            if sum(counts) < self.min_cluster_size:
                continue
            aggregated = aggregate_cluster(cluster_id, unique,
                                           self.stats, sigma=sigma,
                                           weights=counts)
            medoid_area, block = self._medoid(
                unique, counts,
                kept.get(_identities(unique[:MEDOID_CANDIDATES])))
            self._clusters.append(_FittedCluster(
                aggregated, medoid_area, unique, counts, block))
        self._clusters.sort(key=lambda c: c.aggregated.cardinality,
                            reverse=True)
        return self

    def _kept_blocks(self, previous: Optional["InterestRecommender"]
                     ) -> dict[tuple[int, ...], Block]:
        """``previous``'s kernel blocks by the identities of their
        candidates; none unless it measured with an equal metric.

        Identity keys are exact while ``previous`` is alive: it holds
        its members, so no other object can carry their ids.
        """
        if (previous is None or previous.stats is not self.stats
                or previous.resolution != self.resolution):
            return {}
        return {_identities(cluster.members[:MEDOID_CANDIDATES]):
                cluster.block
                for cluster in previous._clusters
                if cluster.block is not None}

    def _medoid(self, members: list[AccessArea],
                weights: Sequence[int],
                block: Optional[Block] = None
                ) -> tuple[AccessArea, Optional[Block]]:
        """The member minimizing total weighted distance to the others,
        and the kernel block that priced it (see :func:`medoid`).

        The candidate/reference pool is the first
        :data:`MEDOID_CANDIDATES` *unique* members; each reference
        counts with its multiplicity, so a representative of 10k
        identical queries pulls the medoid as hard as 10k expanded
        copies would.  ``block`` is an earlier fit's block over the
        same candidates.
        """
        return medoid(members[:MEDOID_CANDIDATES],
                      weights[:MEDOID_CANDIDATES], self._distance, block)

    @property
    def n_clusters(self) -> int:
        return len(self._clusters)

    # -- recommendation ----------------------------------------------------------

    def recommend(self, area: AccessArea, k: int = 5,
                  max_distance: float = 2.0,
                  exclude_exact: bool = True) -> list[Recommendation]:
        """The ``k`` interest areas nearest to ``area``.

        Distances to all fitted medoids come from one probe of the
        fit's medoid pack (:meth:`_medoid_distances`).  Clusters rank by
        ``(distance, -popularity, position)`` — the stable order of a
        sort by distance, then popularity — and only the ``k`` returned
        recommendations are built.

        ``exclude_exact`` drops clusters whose medoid is at distance ~0 —
        the user is already there, recommending it adds nothing.
        """
        ranked = []
        for position, (distance, cluster) in enumerate(
                zip(self._medoid_distances(area), self._clusters)):
            if distance > max_distance:
                continue
            if exclude_exact and distance < 1e-9:
                continue
            ranked.append((distance, -cluster.aggregated.cardinality,
                           position))
        ranked.sort()
        return [_recommendation(self._clusters[position], distance)
                for distance, _, position in ranked[:k]]

    def _medoid_distances(self, area: AccessArea) -> list[float]:
        """``metric(area, medoid)`` for every fitted cluster, in order.

        One :meth:`~repro.distance.kernel.PackedPartition.probe` of
        the shared medoid pack yields every ``d_conj`` and leaves the
        pack bitwise unchanged for every other reader.  Each value adds
        the Jaccard ``d_tables`` to the pack's ``d_conj`` as the metric
        does.  Medoids the kernel refused — and all of them when it
        refuses ``area`` — are measured by the metric per pair.
        """
        pack, packed, table_sets = self._medoid_pack()
        distances: list[Optional[float]] = [None] * len(self._clusters)
        if packed:
            try:
                conj = pack.probe(area).tolist()
            except KernelUnsupported:
                pass
            else:
                tables = area.table_set
                for position, table_set, value in zip(packed, table_sets,
                                                      conj):
                    distances[position] = \
                        jaccard_distance(tables, table_set) + value
        return [self._distance(area, cluster.medoid) if distance is None
                else distance
                for distance, cluster in zip(distances, self._clusters)]

    def _medoid_pack(self) -> tuple:
        """``(pack, positions, table sets)``: one kernel pack of the
        fitted medoids, built once per fit, with the cluster positions
        and table sets of the medoids it holds."""
        if self._ranking is None:
            self._ranking = _pack_medoids(
                [cluster.medoid for cluster in self._clusters],
                self._distance)
        return self._ranking

    def recommend_for_sql(self, sql: str, k: int = 5) -> \
            list[Recommendation]:
        """Convenience wrapper: extract then recommend."""
        if self.extractor is None:
            raise ValueError("recommender was built without an extractor")
        area = self.extractor.extract(sql).area
        return self.recommend(area, k)

    def popular(self, k: int = 5) -> list[Recommendation]:
        """The globally most popular interest areas (cold start)."""
        return [_recommendation(cluster, None)
                for cluster in self._clusters[:k]]


def medoid(candidates: Sequence[AccessArea], counts: Sequence[int],
           metric: Distance, block: Optional[Block] = None
           ) -> tuple[AccessArea, Optional[Block]]:
    """The candidate minimizing ``Σ count · metric(candidate, other)``
    over the candidates, and the kernel block that priced it.

    The cost is a left-to-right Python sum and the first minimum wins,
    so the answer is bitwise the per-pair loop's.  Distances come from
    ``block`` when given (an earlier call's over the same candidates:
    they do not depend on ``counts``), else from one
    :func:`kernel_block`.  Where the kernel refuses, ``metric`` prices
    every ordered pair in row order and the returned block is ``None``.
    A single candidate is its own medoid.
    """
    if len(candidates) == 1:
        return candidates[0], None
    if block is None:
        block = kernel_block(candidates, metric)
    table = block.tolist() if block is not None else \
        [[metric(candidate, other) for other in candidates]
         for candidate in candidates]
    best, best_cost = candidates[0], math.inf
    for candidate, row in zip(candidates, table):
        cost = sum(count * distance
                   for distance, count in zip(row, counts))
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best, block


def kernel_block(candidates: Sequence[AccessArea],
                 metric: Distance) -> Optional[Block]:
    """``metric(a, b)`` over every ordered pair of ``candidates``, from
    one kernel pack; ``None`` when the kernel refuses.

    A pack reads no table sets, so it spans candidates of mixed table
    sets; each entry adds the Jaccard ``d_tables`` to the pack's
    ``d_conj`` as the metric does, and is bitwise the metric's in
    either argument order.  The kernel refuses non-finite constants, so
    the diagonal is exactly 0.0.
    """
    try:
        pack = PackedPartition(candidates, metric)
    except KernelUnsupported:
        return None
    codes: dict[frozenset, int] = {}
    code = np.array([codes.setdefault(area.table_set, len(codes))
                     for area in candidates])
    tables = np.array([[jaccard_distance(first, second)
                        for second in codes] for first in codes])
    n = len(candidates)
    i, j = np.triu_indices(n, 1)  # the condensed block's row-major order
    block = np.zeros((n, n))
    block[i, j] = block[j, i] = \
        tables[code[i], code[j]] + pack.condensed_block()
    return block


def _pack_medoids(medoids: list[AccessArea], metric: Distance) -> tuple:
    """One kernel pack of ``medoids`` with the positions and table sets
    of those it holds: all of them, or — when the kernel refuses some —
    each one it accepts, appended in order."""
    try:
        pack = PackedPartition(medoids, metric)
        packed = list(range(len(medoids)))
    except KernelUnsupported:
        try:
            pack = PackedPartition([], metric)
        except KernelUnsupported:  # a metric the kernel cannot replay
            return None, [], []
        packed = []
        for position, area in enumerate(medoids):
            try:
                pack.extend([area])
            except KernelUnsupported:
                continue
            packed.append(position)
    return pack, packed, [medoids[position].table_set
                          for position in packed]


def _identities(candidates: Sequence[AccessArea]) -> tuple[int, ...]:
    return tuple(map(id, candidates))


def _recommendation(cluster: _FittedCluster,
                    distance: Optional[float]) -> Recommendation:
    return Recommendation(
        aggregated=cluster.aggregated,
        distance=distance,
        popularity=cluster.aggregated.cardinality,
        suggested_sql=cluster.aggregated.to_sql(),
        medoid=cluster.medoid,
    )


def _collapse(members: Sequence[AccessArea],
              weights: Sequence[int]
              ) -> tuple[list[AccessArea], list[int]]:
    """Order-preserving dedupe by canonical area identity, summing
    multiplicities — the shared canonical form both the expanded and
    the weighted-unique fit paths reduce to."""
    unique: list[AccessArea] = []
    counts: list[int] = []
    position: dict[AccessArea, int] = {}
    for area, weight in zip(members, weights):
        index = position.get(area)
        if index is None:
            position[area] = len(unique)
            unique.append(area)
            counts.append(0)
            index = position[area]
        counts[index] += int(weight)
    return unique, counts
