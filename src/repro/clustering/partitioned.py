"""Table-set partitioned DBSCAN.

The query distance is ``d = d_tables + d_conj`` with ``d_conj ≥ 0``, and
the Jaccard distance between two *different* relation sets is at least
``1/|union|`` — at least 0.5 for the one- and two-table FROM sets that
dominate query logs (worst case ``{A}`` vs ``{A, B}``).  Hence for any
radius below that bound two areas can only be DBSCAN neighbours when
their table sets are equal — so the clustering decomposes exactly into
one independent DBSCAN per table-set partition, turning the O(n²)
distance bill into ``Σ n_partition²``.

The 0.5 constant does not survive larger sets — ``{A, B}`` vs
``{A, B, C}`` is only 1/3 apart — so with ``k``-table joins in the log
the decomposition is strictly exact only for ``eps < 1/(k + 1)``.
:func:`partitioned_dbscan` therefore computes the *population's* true
bound (:func:`~repro.distance.query_distance.partition_exactness_bound`,
the minimum cross-partition ``d_tables``; property-tested in
``tests/distance/test_metric_laws.py`` and
``tests/clustering/test_partitioned.py``) and refuses to silently
approximate beyond it: ``eps >= bound`` raises, or — with
``on_inexact="fallback"`` — warns and runs plain DBSCAN over the whole
population.  The paper's radius (0.12) is safely below the bound for
SkyServer-realistic joins.

Partition keys are the areas' canonical table sets (relation names are
canonicalized once at extraction: schema capitalization, lowercase
fallback), i.e. exactly the sets ``d_tables`` compares — the partition
decision and the metric can never disagree on case.

Pass a precomputed matrix over the whole population — dense
:class:`~repro.distance.DistanceMatrix` or
:class:`~repro.distance.BlockSparseDistanceMatrix` — to reuse it across
algorithms; without one, each partition's DBSCAN evaluates the distance
callable per pair.  Both paths produce exactly the same labels.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional, Sequence

from ..core.area import AccessArea
from ..distance.query_distance import partition_exactness_bound
from ..obs import get_logger, metrics, trace
from .dbscan import DBSCAN, NOISE, DBSCANResult
from .telemetry import record_run

logger = get_logger(__name__)

Distance = Callable[[AccessArea, AccessArea], float]


def partitioned_dbscan(areas: Sequence[AccessArea],
                       distance: Optional[Distance], eps: float,
                       min_pts: int = 5, *,
                       matrix=None,
                       weights: Optional[Sequence[float]] = None,
                       on_inexact: str = "raise") -> DBSCANResult:
    """DBSCAN over access areas, partitioned by relation set.

    Produces exactly the labels plain DBSCAN would (up to cluster-id
    numbering) whenever ``eps`` lies strictly below the population's
    partition exactness bound — the minimum ``d_tables`` between
    distinct table sets, ``1/(k+1)`` in the worst ``k``-table-join case.
    ``matrix`` — optional precomputed distance matrix over ``areas``
    (dense :class:`~repro.distance.DistanceMatrix` or block-sparse; then
    ``distance`` may be ``None``); ``weights`` — optional positive
    per-area multiplicities (intern-pool duplicate counts), forwarded to
    the per-partition DBSCANs so the core condition sums neighbourhood
    weight; the small-partition skip likewise compares summed weight
    against ``min_pts``;
    ``on_inexact`` — what to do when ``eps`` reaches the bound:
    ``"raise"`` (default) or ``"fallback"`` (warn and run plain DBSCAN
    over the whole, unpartitioned population).
    """
    if distance is None and matrix is None:
        raise ValueError("provide a distance callable or a matrix")
    if weights is not None and len(weights) != len(areas):
        raise ValueError(f"{len(weights)} weights do not match "
                         f"{len(areas)} areas")
    if on_inexact not in ("raise", "fallback"):
        raise ValueError(f"on_inexact must be 'raise' or 'fallback', "
                         f"got {on_inexact!r}")
    bound = partition_exactness_bound(area.table_set for area in areas)
    if eps >= bound:
        message = (
            f"partitioned DBSCAN is only exact for eps < {bound:.4g} "
            f"(the minimum cross-partition d_tables of this "
            f"population); got eps={eps:g}")
        if on_inexact == "raise":
            raise ValueError(
                message + "; use plain DBSCAN or on_inexact='fallback'")
        warnings.warn(message + "; falling back to plain DBSCAN",
                      RuntimeWarning, stacklevel=2)
        logger.warning("%s; falling back to plain DBSCAN", message)
        if matrix is not None:
            return DBSCAN(eps, min_pts).fit(areas, matrix=matrix,
                                            weights=weights)
        return DBSCAN(eps, min_pts).fit(areas, distance, weights=weights)

    # Canonical table sets (the exact frozensets d_tables compares).
    partitions: dict[frozenset[str], list[int]] = {}
    for index, area in enumerate(areas):
        partitions.setdefault(area.table_set, []).append(index)

    partition_sizes = metrics.get_registry().histogram(
        "repro_clustering_partition_size", algorithm="partitioned_dbscan")
    labels = [NOISE] * len(areas)
    next_cluster = 0
    fitted_partitions = 0
    with trace.span("partitioned_dbscan", n=len(areas), eps=eps,
                    partitions=len(partitions)) as span:
        for key in sorted(partitions, key=lambda k: (len(k), sorted(k))):
            indices = partitions[key]
            partition_sizes.observe(len(indices))
            if weights is None:
                partition_mass: float = len(indices)
                subset_weights = None
            else:
                subset_weights = [weights[i] for i in indices]
                partition_mass = sum(subset_weights)
            if partition_mass < min_pts:
                continue  # too light to ever contain a core point
            fitted_partitions += 1
            subset = [areas[i] for i in indices]
            with trace.span("partition",
                            tables="+".join(sorted(key)) or "(none)",
                            size=len(indices)):
                if matrix is not None:
                    result = DBSCAN(eps, min_pts).fit(
                        subset, matrix=matrix.submatrix(indices),
                        weights=subset_weights)
                else:
                    result = DBSCAN(eps, min_pts).fit(
                        subset, distance, weights=subset_weights)
            remap: dict[int, int] = {}
            for local_index, label in enumerate(result.labels):
                if label == NOISE:
                    continue
                if label not in remap:
                    remap[label] = next_cluster
                    next_cluster += 1
                labels[indices[local_index]] = remap[label]
        combined = DBSCANResult(labels)
        span.set(clusters=combined.n_clusters,
                 fitted_partitions=fitted_partitions)
    record_run("partitioned_dbscan", fitted_partitions, combined)
    return combined
