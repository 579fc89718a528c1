"""Temporal interest drift (the abstract's "trending research directions").

The paper motivates access-area mining with understanding "the public
focus, and trending research directions on the subject described by the
database".  This module adds the temporal axis: split a timestamped log
into windows, mine each window's interest areas, and match areas across
consecutive windows to report which interests **emerged**, **persisted**
(growing or shrinking), and **vanished**.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.dbscan import DBSCANResult
from ..clustering.partitioned import partitioned_dbscan
from ..core.area import AccessArea
from ..core.pipeline import dedupe_areas, expand_labels
from ..distance.block_sparse import compute_matrix
from ..distance.query_distance import QueryDistance
from ..recommend.recommender import medoid
from ..schema.statistics import StatisticsCatalog

#: Medoid candidates per window cluster: its first members, unweighted.
_MEDOID_CANDIDATES = 20


class TrendKind(enum.Enum):
    EMERGED = "emerged"
    PERSISTED = "persisted"
    VANISHED = "vanished"


@dataclass(frozen=True)
class WindowInterest:
    """One interest area mined from one time window."""

    window: int
    aggregated: AggregatedArea
    medoid: AccessArea
    cardinality: int


@dataclass(frozen=True)
class Trend:
    """One interest's evolution between consecutive windows."""

    kind: TrendKind
    window: int  # the later window
    current: Optional[WindowInterest]
    previous: Optional[WindowInterest]

    @property
    def growth(self) -> float:
        """Cardinality ratio (later / earlier); inf for emerged."""
        if self.previous is None:
            return float("inf")
        if self.current is None:
            return 0.0
        return self.current.cardinality / max(self.previous.cardinality, 1)

    def describe(self) -> str:
        interest = self.current or self.previous
        assert interest is not None
        label = interest.aggregated.describe()
        if self.kind is TrendKind.EMERGED:
            return (f"[w{self.window}] EMERGED "
                    f"({interest.cardinality} queries): {label}")
        if self.kind is TrendKind.VANISHED:
            return f"[w{self.window}] VANISHED: {label}"
        arrow = "↑" if self.growth > 1.25 else \
            "↓" if self.growth < 0.8 else "→"
        return (f"[w{self.window}] {arrow} x{self.growth:.2f} "
                f"({interest.cardinality} queries): {label}")


@dataclass
class DriftReport:
    windows: list[list[WindowInterest]] = field(default_factory=list)
    trends: list[Trend] = field(default_factory=list)

    def emerged(self) -> list[Trend]:
        return [t for t in self.trends if t.kind is TrendKind.EMERGED]

    def vanished(self) -> list[Trend]:
        return [t for t in self.trends if t.kind is TrendKind.VANISHED]

    def persisted(self) -> list[Trend]:
        return [t for t in self.trends if t.kind is TrendKind.PERSISTED]

    def describe(self, limit: int = 20) -> str:
        lines = [f"windows analysed : {len(self.windows)}"]
        lines += [f"  w{index}: {len(interests)} interest areas"
                  for index, interests in enumerate(self.windows)]
        lines.append(f"trends: {len(self.emerged())} emerged, "
                     f"{len(self.persisted())} persisted, "
                     f"{len(self.vanished())} vanished")
        for trend in self.trends[:limit]:
            lines.append("  " + trend.describe()[:100])
        return "\n".join(lines)


def mine_drift(
        windows: Sequence[Sequence[AccessArea]],
        stats: StatisticsCatalog,
        eps: float = 0.12,
        min_pts: int = 5,
        resolution: float = 0.05,
        match_distance: float = 0.5,
        sigma: float = 3.0) -> DriftReport:
    """Mine each window and match interests across consecutive windows.

    Each window's unique areas are clustered with multiplicity weights
    over a :func:`~repro.distance.block_sparse.compute_matrix` layout
    (plain DBSCAN on the dense one when ``eps`` reaches the partition
    exactness bound).  Two interests in consecutive windows are the
    *same* interest when their medoids are within ``match_distance``
    (greedy best-match).
    """
    distance = QueryDistance(stats, resolution=resolution)
    report = DriftReport()

    for window_index, areas in enumerate(windows):
        unique, weights, inverse = dedupe_areas(areas)
        matrix = compute_matrix(unique, distance, eps=eps)
        deduped = partitioned_dbscan(unique, distance, eps, min_pts,
                                     matrix=matrix, weights=weights,
                                     on_inexact="fallback")
        clustering = DBSCANResult(expand_labels(deduped.labels, inverse))
        interests: list[WindowInterest] = []
        for cluster_id, indices in clustering.clusters().items():
            members = [areas[i] for i in indices]
            aggregated = aggregate_cluster(cluster_id, members, stats,
                                           sigma=sigma)
            candidates = members[:_MEDOID_CANDIDATES]
            medoid_area, _ = medoid(candidates, [1] * len(candidates),
                                    distance)
            interests.append(WindowInterest(
                window=window_index, aggregated=aggregated,
                medoid=medoid_area, cardinality=len(members)))
        interests.sort(key=lambda i: i.cardinality, reverse=True)
        report.windows.append(interests)

    for window_index in range(1, len(report.windows)):
        previous = list(report.windows[window_index - 1])
        current = list(report.windows[window_index])
        matched_prev: set[int] = set()
        for interest in current:
            best_j, best_d = None, match_distance
            for j, candidate in enumerate(previous):
                if j in matched_prev:
                    continue
                d = distance(interest.medoid, candidate.medoid)
                if d <= best_d:
                    best_j, best_d = j, d
            if best_j is None:
                report.trends.append(Trend(TrendKind.EMERGED,
                                           window_index, interest, None))
            else:
                matched_prev.add(best_j)
                report.trends.append(Trend(TrendKind.PERSISTED,
                                           window_index, interest,
                                           previous[best_j]))
        for j, candidate in enumerate(previous):
            if j not in matched_prev:
                report.trends.append(Trend(TrendKind.VANISHED,
                                           window_index, None, candidate))
    return report


def split_by_time(areas_with_time: Sequence[tuple[AccessArea, float]],
                  n_windows: int) -> list[list[AccessArea]]:
    """Equal-duration windows over (area, timestamp) pairs."""
    if not areas_with_time:
        return [[] for _ in range(n_windows)]
    times = [t for _, t in areas_with_time]
    start, end = min(times), max(times)
    span = max(end - start, 1e-9)
    windows: list[list[AccessArea]] = [[] for _ in range(n_windows)]
    for area, t in areas_with_time:
        index = min(n_windows - 1,
                    int((t - start) / span * n_windows))
        windows[index].append(area)
    return windows
