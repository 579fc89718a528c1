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
per-pair :class:`QueryDistance`: a medoid reads the dense fill over its
candidates (:func:`~repro.distance.kernel.dense_fill`), and a ranking
scores a query against all fitted medoids with one probe of a single
medoid pack.  Where the kernel refuses an area
(:class:`KernelUnsupported`), the pairs that touch it, or that query,
are measured per pair by the metric.

A refit recomputes only what changed.  It takes over the previous fit's
aggregate of every cluster whose unique members and counts are
unchanged, the block of every cluster whose medoid candidates are
unchanged, and the medoid pack, which the first ranking after the fit
extends by the medoids it does not yet hold.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.dbscan import DBSCANResult
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor
from ..distance.kernel import (KernelUnsupported, PackedPartition, accept,
                               dense_fill)
from ..distance.matrix import DistanceMatrix
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

#: A ranking packs the live medoids afresh once the stale medoids of the
#: carried pack exceed this share of the live ones.  A probe scores
#: every medoid the pack holds: at 500 and 1,000 live medoids, a quarter
#: more stale ones cost a probe 36% and 41% more, as many stale as live
#: ones 190% and 215% more, while a rebuild costs six to eight probes.
MAX_STALE_SHARE = 0.25


@dataclass
class _FittedCluster:
    aggregated: AggregatedArea
    medoid: AccessArea
    members: list[AccessArea]
    weights: list[int]
    #: the distances over the medoid candidates, which the next refit
    #: takes over while the candidates stay the same; ``None`` for a
    #: single candidate.
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
        #: the trimming rule of the last fit.
        self._sigma: Optional[float] = None
        #: the medoid pack, carried from fit to fit (see
        #: :meth:`_medoid_pack`); ``None`` until a ranking builds it.
        self._medoids: Optional[_MedoidPack] = None
        #: this fit's view of the medoid pack, built by its first
        #: ranking.
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
        and resolution.  A cluster whose unique members are the very
        same area objects, in the same order and with the same counts,
        takes over that fit's aggregate (relabelled when its id moved)
        under an equal ``sigma``.  Every cluster takes over the kernel
        block of a cluster with the very same medoid candidates
        (distances do not depend on weights), so its medoid costs one
        weighted sum per candidate, and the fit takes over the medoid
        pack.  The fit is bitwise identical to one without
        ``previous``, and keeps only what it uses.
        """
        if weights is not None and len(weights) != len(areas):
            raise ValueError(f"{len(weights)} weights do not match "
                             f"{len(areas)} areas")
        aggregates, blocks, self._medoids = self._kept(previous, sigma)
        self._clusters = []
        self._sigma = sigma
        self._ranking = None
        for cluster_id, indices in clustering.clusters().items():
            members = [areas[i] for i in indices]
            raw = ([1] * len(members) if weights is None
                   else [int(weights[i]) for i in indices])
            unique, counts = _collapse(members, raw)
            if sum(counts) < self.min_cluster_size:
                continue
            aggregated = aggregates.get((_identities(unique),
                                         tuple(counts)))
            if aggregated is None:
                aggregated = aggregate_cluster(cluster_id, unique,
                                               self.stats, sigma=sigma,
                                               weights=counts)
            elif aggregated.cluster_id != cluster_id:
                aggregated = dataclasses.replace(aggregated,
                                                 cluster_id=cluster_id)
            medoid_area, block = self._medoid(
                unique, counts,
                blocks.get(_identities(unique[:MEDOID_CANDIDATES])))
            self._clusters.append(_FittedCluster(
                aggregated, medoid_area, unique, counts, block))
        self._clusters.sort(key=lambda c: c.aggregated.cardinality,
                            reverse=True)
        return self

    def _kept(self, previous: Optional["InterestRecommender"],
              sigma: float
              ) -> tuple[dict[tuple, AggregatedArea],
                         dict[tuple[int, ...], Block],
                         Optional["_MedoidPack"]]:
        """What this fit may take over from ``previous``: its aggregates
        by the identities of their clusters' unique members and their
        counts (none unless it trimmed with an equal ``sigma``), its
        kernel blocks by the identities of their candidates, and its
        medoid pack.  Nothing unless ``previous`` measured with an
        equal metric.

        Identity keys are exact while ``previous`` is alive: it holds
        its members, so no other object can carry their ids.
        """
        if (previous is None or previous.stats is not self.stats
                or previous.resolution != self.resolution):
            return {}, {}, None
        aggregates = {}
        if previous._sigma == sigma:
            aggregates = {(_identities(cluster.members),
                           tuple(cluster.weights)): cluster.aggregated
                          for cluster in previous._clusters}
        blocks = {_identities(cluster.members[:MEDOID_CANDIDATES]):
                  cluster.block
                  for cluster in previous._clusters
                  if cluster.block is not None}
        return aggregates, blocks, previous._medoids

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
        the medoid pack yields every ``d_conj`` and leaves the pack
        bitwise unchanged for every other reader; each cluster reads
        its medoid's column.  Each value adds the Jaccard ``d_tables``
        to the pack's ``d_conj`` as the metric does.  Medoids the
        kernel refused — and all of them when it refuses ``area`` — are
        measured by the metric per pair.
        """
        pack, packed, columns, table_sets = self._medoid_pack()
        distances: list[Optional[float]] = [None] * len(self._clusters)
        if packed:
            try:
                conj = pack.probe(area)[columns].tolist()
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
        """``(pack, positions, columns, table sets)``: the medoid pack,
        with the positions of the clusters whose medoid it holds, their
        medoids' columns and table sets — worked out once per fit.

        The first ranking after a fit extends the pack it carried over
        by the medoids it does not hold yet (see :class:`_MedoidPack`),
        or packs the live medoids afresh when none was carried or the
        stale medoids it holds exceed :data:`MAX_STALE_SHARE` of the
        live ones.
        """
        if self._ranking is None:
            medoids = [cluster.medoid for cluster in self._clusters]
            live = {id(area): area for area in medoids}
            holder = self._medoids
            if (holder is None
                    or holder.stale(live) > MAX_STALE_SHARE * len(live)):
                holder = _MedoidPack.of(self._distance)
            self._medoids = holder
            if holder is None:  # a metric the kernel cannot replay
                self._ranking = None, [], None, []
                return self._ranking
            holder.add(live.values())
            columns = [holder.columns[id(area)] for area in medoids]
            packed = [position for position, column in enumerate(columns)
                      if column is not None]
            self._ranking = (
                holder.pack, packed,
                np.array([columns[position] for position in packed],
                         dtype=np.intp),
                [medoids[position].table_set for position in packed])
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
    over the candidates, and the distances that priced it.

    The cost is a left-to-right Python sum and the first minimum wins,
    so the answer is bitwise the per-pair loop's.  Distances come from
    ``block`` when given (an earlier call's over the same candidates:
    they do not depend on ``counts``), else from the dense fill
    (:func:`~repro.distance.kernel.dense_fill`), which prices per pair
    only the pairs that touch a candidate the kernel refuses.  A single
    candidate is its own medoid.
    """
    if len(candidates) == 1:
        return candidates[0], None
    if block is None:
        block = DistanceMatrix(len(candidates), dense_fill(
            candidates, metric)[0]).to_square()
    best, best_cost = candidates[0], math.inf
    for candidate, row in zip(candidates, block.tolist()):
        cost = sum(count * distance
                   for distance, count in zip(row, counts))
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best, block


class _MedoidPack:
    """One kernel pack of medoids that successive fits extend.

    A medoid keeps its column for the life of the pack, because
    :meth:`~repro.distance.kernel.PackedPartition.extend` only appends,
    so a fit that read its columns stays valid while a later fit
    extends the pack.  ``columns`` maps each medoid the pack was given,
    by identity, to its column, or to ``None`` when the kernel refused
    it; ``held`` keeps a reference to every one of them, so no other
    object can carry their ids.
    """

    def __init__(self, pack: PackedPartition) -> None:
        self.pack = pack
        self.columns: dict[int, Optional[int]] = {}
        self.held: list[AccessArea] = []

    @classmethod
    def of(cls, metric: Distance) -> Optional["_MedoidPack"]:
        """An empty pack for ``metric``; ``None`` when the kernel
        cannot replay the metric."""
        try:
            return cls(PackedPartition([], metric))
        except KernelUnsupported:
            return None

    def stale(self, live: dict[int, AccessArea]) -> int:
        """How many held medoids are not among ``live`` (by id)."""
        return len(self.held) - sum(key in self.columns for key in live)

    def add(self, medoids) -> None:
        """Pack the distinct ``medoids`` not held yet, in order (see
        :func:`~repro.distance.kernel.accept`)."""
        new = [area for area in medoids if id(area) not in self.columns]
        self.held.extend(new)
        self.columns.update(zip(map(id, new), accept(self.pack, new)))


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
