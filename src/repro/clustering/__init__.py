"""Clustering of access areas: DBSCAN, aggregation, coverage metrics."""

from .aggregation import (AggregatedArea, CategoricalBounds, ColumnBounds,
                          aggregate_cluster)
from .coverage import (CoverageReport, area_coverage, coverage,
                       object_coverage)
from .agglomerative import SingleLinkage
from .optics import OPTICS, OPTICSResult, extract_dbscan
from .dbscan import DBSCAN, NOISE, DBSCANResult, pairwise_matrix
from .density import (ColumnDensity, DensityReport, density_contrast)
from .incremental import IncrementalDBSCAN, IncrementalUpdate
from .partitioned import partitioned_dbscan

__all__ = [
    "AggregatedArea", "CategoricalBounds", "ColumnBounds",
    "aggregate_cluster",
    "CoverageReport", "area_coverage", "coverage", "object_coverage",
    "DBSCAN", "NOISE", "DBSCANResult", "pairwise_matrix",
    "partitioned_dbscan",
    "SingleLinkage",
    "OPTICS", "OPTICSResult", "extract_dbscan",
    "ColumnDensity", "DensityReport", "density_contrast",
    "IncrementalDBSCAN", "IncrementalUpdate",
]
