"""Shared recommender-fitting paths.

Two entrypoints hand queries to :class:`InterestRecommender` — the
``repro recommend`` CLI (batch: a processed log) and the interest
service's ``GET /recommend`` route (live: the incremental clusterer's
resident population).  Both must fit the *same* way or their rankings
would drift apart; this module is that one way:

* :func:`fit_recommender` — the core: unique areas + multiplicities +
  cluster labels → a fitted :class:`InterestRecommender`;
* :func:`fit_from_areas` — the batch wrapper: dedupe a raw area
  population, cluster it weighted (``compute_matrix``, whose layout
  ``eps`` picks), then delegate to :func:`fit_recommender`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..clustering.dbscan import DBSCANResult
from ..clustering.partitioned import partitioned_dbscan
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor
from ..core.pipeline import dedupe_areas
from ..distance.block_sparse import compute_matrix
from ..distance.query_distance import QueryDistance
from ..schema.statistics import StatisticsCatalog


def fit_recommender(areas: Sequence[AccessArea],
                    weights: Sequence[int],
                    labels: Sequence[int],
                    stats: StatisticsCatalog,
                    extractor: Optional[AccessAreaExtractor] = None, *,
                    resolution: float = 0.05,
                    min_cluster_size: int = 5,
                    sigma: float = 3.0):
    """Fit a recommender on an already-clustered unique population.

    ``areas``/``weights``/``labels`` are aligned per unique area — the
    shape both :meth:`~repro.clustering.incremental.IncrementalDBSCAN`
    state and a weighted batch run produce.
    """
    from .recommender import InterestRecommender

    recommender = InterestRecommender(
        stats, extractor=extractor, resolution=resolution,
        min_cluster_size=min_cluster_size)
    recommender.fit(list(areas), DBSCANResult(list(labels)),
                    sigma=sigma, weights=[int(w) for w in weights])
    return recommender


def fit_from_areas(areas: Sequence[AccessArea],
                   stats: StatisticsCatalog,
                   extractor: Optional[AccessAreaExtractor] = None, *,
                   eps: float = 0.12,
                   min_pts: int = 5,
                   resolution: float = 0.05,
                   min_cluster_size: int = 5,
                   sigma: float = 3.0):
    """Cluster a raw (possibly repeat-heavy) area population and fit.

    The population is interned to unique representatives, clustered
    with multiplicity weights over a ``compute_matrix`` layout, and
    handed to :func:`fit_recommender` — the exact batch mirror of the
    service's incremental path.
    """
    unique, weights, _ = dedupe_areas(areas)
    metric = QueryDistance(stats)
    matrix = compute_matrix(unique, metric, eps=eps)
    clustering = partitioned_dbscan(unique, metric, eps, min_pts,
                                    matrix=matrix, weights=weights,
                                    on_inexact="fallback")
    return fit_recommender(unique, weights, clustering.labels, stats,
                           extractor, resolution=resolution,
                           min_cluster_size=min_cluster_size,
                           sigma=sigma)
