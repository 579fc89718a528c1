"""The access-area distance function of Section 5.

Besides the pairwise metric, the package hosts the shared
:class:`DistanceMatrix` engine every clustering algorithm consumes: the
condensed pairwise matrix with multiprocessing fan-out, relation-set
memoization, bound-skipping, and :class:`MatrixStats` instrumentation —
plus the block-sparse layout whose partition blocks come from the
vectorized struct-of-arrays kernel (:mod:`.kernel`), differentially
validated against the pure-Python oracle.
"""

from .alternatives import FootprintDistance, WeightedQueryDistance
from .block_sparse import (BlockSparseDistanceMatrix, MATRIX_MODES,
                           compute_matrix)
from .kernel import (KernelStats, KernelUnsupported, PackedPartition,
                     compute_kernel_blocks)
from .matrix import DistanceMatrix, MatrixStats, condensed_index
from .parallel import resolve_n_jobs
from .predicate_distance import (CacheInfo, DEFAULT_CACHE_SIZE,
                                 DEFAULT_RESOLUTION, PredicateDistance)
from .query_distance import (QueryDistance, jaccard_distance,
                             partition_exactness_bound)

__all__ = [
    "CacheInfo", "DEFAULT_CACHE_SIZE",
    "DEFAULT_RESOLUTION", "PredicateDistance",
    "QueryDistance", "jaccard_distance", "partition_exactness_bound",
    "FootprintDistance", "WeightedQueryDistance",
    "DistanceMatrix", "MatrixStats", "condensed_index",
    "BlockSparseDistanceMatrix", "MATRIX_MODES", "compute_matrix",
    "KernelStats", "KernelUnsupported", "PackedPartition",
    "compute_kernel_blocks",
    "resolve_n_jobs",
]
