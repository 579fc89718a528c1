"""OPTICS (Ankerst et al., SIGMOD 1999) over access-area distances.

DBSCAN's fixed ``eps`` is its known weakness — the eps-sensitivity
ablation shows cluster counts swinging with the radius.  OPTICS computes
the density *ordering* once (up to ``max_eps``) and lets any smaller
radius be extracted afterwards without re-running the distance
computation: the natural next step for the paper's "different clustering
techniques" future work.

The implementation is the textbook one: reachability distances over a
priority queue, plus :func:`extract_dbscan` which cuts the reachability
plot at a chosen eps to obtain the DBSCAN-equivalent labelling.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs import trace
from .dbscan import NOISE, DBSCANResult
from .telemetry import record_run

Distance = Callable[[object, object], float]

_UNDEFINED = math.inf


@dataclass
class OPTICSResult:
    """The cluster ordering with core/reachability distances."""

    ordering: list[int]
    reachability: list[float]  # indexed by item position, not ordering
    core_distance: list[float]

    def reachability_plot(self) -> list[tuple[int, float]]:
        """(item index, reachability) pairs in cluster order."""
        return [(index, self.reachability[index])
                for index in self.ordering]


@dataclass
class OPTICS:
    """Density ordering up to ``max_eps`` with ``min_pts`` density."""

    max_eps: float
    min_pts: int = 5

    def fit(self, items: Sequence, distance: Optional[Distance] = None,
            matrix=None,
            weights: Optional[Sequence[float]] = None) -> OPTICSResult:
        """Order ``items``; exactly one of ``distance``/``matrix``.

        ``matrix`` is a square array-like or a condensed
        ``DistanceMatrix`` over ``items`` (computed up to at least
        ``max_eps`` — bound-skipped entries hold lower bounds, which the
        radius test treats correctly).  ``weights`` — optional positive
        per-item multiplicities: the core distance becomes the smallest
        radius whose neighbourhood mass (starting from the point's own
        weight) reaches ``min_pts``, so ordering ``u`` interned unique
        areas matches ordering the expanded population."""
        if (distance is None) == (matrix is None):
            raise ValueError("provide exactly one of distance or matrix")
        n = len(items)
        if weights is not None:
            weights = [float(w) for w in weights]
            if len(weights) != n:
                raise ValueError(
                    f"{len(weights)} weights do not match {n} items")
            if any(w <= 0 for w in weights):
                raise ValueError("weights must be positive")
        processed = [False] * n
        reachability = [_UNDEFINED] * n
        core_distance = [_UNDEFINED] * n
        ordering: list[int] = []

        memo: dict[tuple[int, int], float] = {}

        def dist(i: int, j: int) -> float:
            if matrix is not None:
                if hasattr(matrix, "value"):  # condensed DistanceMatrix
                    return matrix.value(i, j)
                return float(matrix[i][j])
            key = (i, j) if i < j else (j, i)
            value = memo.get(key)
            if value is None:
                value = distance(items[i], items[j])
                memo[key] = value
            return value

        def neighbors(point: int) -> list[tuple[int, float]]:
            out = []
            for other in range(n):
                if other == point:
                    continue
                d = dist(point, other)
                if d <= self.max_eps:
                    out.append((other, d))
            return out

        iterations = 0
        with trace.span("optics.fit", n=n, max_eps=self.max_eps,
                        min_pts=self.min_pts) as span:
            for start in range(n):
                if processed[start]:
                    continue
                processed[start] = True
                ordering.append(start)
                near = neighbors(start)
                core_distance[start] = self._core_distance(start, near,
                                                           weights)
                if math.isinf(core_distance[start]):
                    continue
                seeds: list[tuple[float, int]] = []
                self._update(start, near, core_distance, reachability,
                             processed, seeds)
                while seeds:
                    _, current = heapq.heappop(seeds)
                    iterations += 1
                    if processed[current]:
                        continue
                    processed[current] = True
                    ordering.append(current)
                    current_near = neighbors(current)
                    core_distance[current] = self._core_distance(
                        current, current_near, weights)
                    if not math.isinf(core_distance[current]):
                        self._update(current, current_near, core_distance,
                                     reachability, processed, seeds)
            span.set(iterations=iterations)
        record_run("optics", iterations)
        return OPTICSResult(ordering, reachability, core_distance)

    def _core_distance(self, point: int, near: list[tuple[int, float]],
                       weights: Optional[list[float]]) -> float:
        # min_pts includes the point itself, matching our DBSCAN.
        if weights is None:
            if len(near) + 1 < self.min_pts:
                return _UNDEFINED
            distances = sorted(d for _, d in near)
            return distances[self.min_pts - 2]
        mass = weights[point]
        if mass >= self.min_pts:
            return 0.0
        for other, d in sorted(near, key=lambda pair: pair[1]):
            mass += weights[other]
            if mass >= self.min_pts:
                return d
        return _UNDEFINED

    @staticmethod
    def _update(center: int, near: list[tuple[int, float]],
                core_distance: list[float], reachability: list[float],
                processed: list[bool],
                seeds: list[tuple[float, int]]) -> None:
        core = core_distance[center]
        for other, d in near:
            if processed[other]:
                continue
            new_reach = max(core, d)
            if new_reach < reachability[other]:
                reachability[other] = new_reach
                heapq.heappush(seeds, (new_reach, other))


def extract_dbscan(result: OPTICSResult, eps: float,
                   min_pts_unused: int = 0) -> DBSCANResult:
    """Cut the reachability plot at ``eps``.

    Produces the DBSCAN clustering at radius ``eps`` (for any
    ``eps <= max_eps``), following the extraction rule of the OPTICS
    paper: a reachability above eps starts a new cluster when the point
    itself is core at eps, otherwise the point is noise.
    """
    n = len(result.reachability)
    labels = [NOISE] * n
    cluster_id = -1
    for index in result.ordering:
        if result.reachability[index] > eps:
            if result.core_distance[index] <= eps:
                cluster_id += 1
                labels[index] = cluster_id
            else:
                labels[index] = NOISE
        else:
            labels[index] = cluster_id if cluster_id >= 0 else NOISE
    return DBSCANResult(labels)
