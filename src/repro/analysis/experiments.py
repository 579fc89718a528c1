"""The end-to-end case study driver (Section 6).

Glues the substrates together the way the paper's study does:

1. generate the synthetic database and query log;
2. estimate ``content(a)``/``access(a)`` by sampling (Section 5.3);
3. extract access areas from the whole log (Section 6.1);
4. widen ``access(a)`` with the constants seen in the log;
5. cluster a sample of the transformed queries with DBSCAN (Section 6.2);
6. aggregate clusters into MBRs with 3σ trimming and compute cardinality,
   user counts, area coverage, and object coverage (Table 1).

Benchmarks and examples all call :func:`run_case_study` with different
configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..clustering.aggregation import AggregatedArea, aggregate_cluster
from ..clustering.coverage import area_coverage, object_coverage
from ..clustering.dbscan import DBSCANResult
from ..clustering.density import density_contrast
from ..clustering.partitioned import partitioned_dbscan
from ..core.area import AccessArea
from ..core.extractor import AccessAreaExtractor
from ..core.pipeline import (LogProcessingReport, dedupe_areas,
                             expand_labels, process_log)
from ..distance.block_sparse import compute_matrix
from ..distance.query_distance import QueryDistance
from ..obs import get_logger, trace
from ..engine.database import Database
from ..schema.database import Schema
from ..schema.skyserver import CONTENT_BOUNDS, skyserver_schema
from ..schema.statistics import StatisticsCatalog
from ..workload.content import ContentConfig, build_database
from ..workload.generator import (GeneratedWorkload, WorkloadConfig,
                                  generate_workload)

logger = get_logger(__name__)


@dataclass(frozen=True)
class CaseStudyConfig:
    """All knobs of one case-study run."""

    workload: WorkloadConfig = WorkloadConfig(n_queries=6000)
    content: ContentConfig = ContentConfig()
    #: clustering sample size (the paper also clusters a sample)
    sample_size: int = 2500
    eps: float = 0.12
    min_pts: int = 5
    resolution: float = 0.05
    sigma: float = 3.0
    #: True → the paper's sampling+doubling estimate; False → exact MBRs
    estimate_stats: bool = True
    predicate_cap: Optional[int] = 35
    consolidate: bool = True
    seed: int = 99
    #: accepts only 1: the clustering fill runs in one process.  The
    #: field stays only because the benchmark's study configuration
    #: passes ``n_jobs=1``; the benchmark change of ROADMAP item 3
    #: deletes it together with ``partitioned_dbscan`` and
    #: ``compute_matrix(mode=)``.
    n_jobs: int = 1
    #: directory for the persistent :class:`~repro.store.AreaStore`
    #: (``--store-dir``): a cold run persists extracted areas and the
    #: log manifest; a warm re-run on the same directory replays them —
    #: zero SQL re-extraction, bitwise-identical labels.  Distances are
    #: recomputed on every run.  ``None`` = in-memory only.
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_jobs != 1:
            raise ValueError(f"n_jobs must be 1 (the clustering fill "
                             f"runs in one process), got {self.n_jobs}")


@dataclass
class ClusterRow:
    """One Table-1 row."""

    cluster_id: int
    cardinality: int
    n_users: int
    area_coverage: float
    object_coverage: float
    description: str
    aggregated: AggregatedArea
    #: how much denser the cluster is than its immediate surroundings
    #: (the Section 6.3 refinement); inf when the shell is empty
    density_contrast: float = 1.0
    #: ground-truth diagnostics (synthetic setting only)
    dominant_family: int = 0
    purity: float = 0.0

    @property
    def is_empty_area(self) -> bool:
        return self.area_coverage == 0.0


@dataclass
class SampledQuery:
    """A clustering-sample member with its provenance."""

    area: AccessArea
    user: str
    family_id: int


@dataclass
class CaseStudyResult:
    config: CaseStudyConfig
    workload: GeneratedWorkload
    db: Database
    schema: Schema
    stats: StatisticsCatalog
    report: LogProcessingReport
    sample: list[SampledQuery]
    clustering: DBSCANResult
    rows: list[ClusterRow] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return self.clustering.n_clusters

    def rows_for_family(self, family_id: int) -> list[ClusterRow]:
        return [row for row in self.rows
                if row.dominant_family == family_id]

    def recovered_families(self, min_purity: float = 0.5) -> set[int]:
        """Planted families recovered as (dominant, pure-enough) clusters."""
        return {
            row.dominant_family for row in self.rows
            if row.dominant_family > 0 and row.purity >= min_purity
        }


def run_case_study(config: CaseStudyConfig | None = None) -> CaseStudyResult:
    """Execute the full pipeline; deterministic given the config seeds."""
    config = config or CaseStudyConfig()
    with trace.span("casestudy",
                    queries=config.workload.n_queries,
                    sample_size=config.sample_size,
                    eps=config.eps) as root:
        schema = skyserver_schema()
        with trace.span("generate_workload"):
            workload = generate_workload(config.workload)
        with trace.span("build_database"):
            db = build_database(config.content, schema)

        with trace.span("estimate_stats",
                        estimated=config.estimate_stats):
            if config.estimate_stats:
                stats = StatisticsCatalog.estimate(schema, db)
            else:
                stats = StatisticsCatalog.from_exact_content(
                    schema, CONTENT_BOUNDS)

        extractor = AccessAreaExtractor(
            schema, predicate_cap=config.predicate_cap,
            consolidate=config.consolidate)
        store = None
        if config.store_dir:
            from ..store import AreaStore
            store = AreaStore(config.store_dir)
        report = process_log(workload.log.statements_with_users(),
                             extractor, store=store)

        # access(a) = content(a) ∪ MBR(a): widen with the whole log's
        # constants.
        with trace.span("widen_access"):
            for extracted in report.extracted:
                stats.observe_cnf(extracted.area.cnf)

        rng = random.Random(config.seed)
        extracted = report.extracted
        if len(extracted) > config.sample_size:
            extracted = rng.sample(extracted, config.sample_size)
        sample = [
            SampledQuery(
                area=item.area,
                user=item.user or "anonymous",
                family_id=workload.log[item.index].family_id,
            )
            for item in extracted
        ]

        distance = QueryDistance(stats, resolution=config.resolution)
        with trace.span("cluster", sample=len(sample)) as cluster_span:
            # Cluster the unique areas with multiplicity weights — same
            # labels as clustering the full sample, but the distance
            # stage pays u(u−1)/2 instead of n(n−1)/2.
            unique, area_weights, inverse = dedupe_areas(
                [s.area for s in sample])
            matrix = compute_matrix(unique, distance, eps=config.eps)
            matrix.stats.n_source_items = len(sample)
            # compute_matrix hands back a dense matrix when eps is too
            # large for exact partitioning; fall back to plain DBSCAN on
            # it instead of failing the whole study.
            deduped = partitioned_dbscan(
                unique, distance, config.eps, config.min_pts,
                matrix=matrix, weights=area_weights,
                on_inexact="fallback")
            clustering = DBSCANResult(
                expand_labels(deduped.labels, inverse))
            cluster_span.set(unique=len(unique))

        with trace.span("aggregate"):
            rows = _build_rows(sample, clustering, stats, db, config)
        if store is not None:
            store.close()
        root.set(clusters=clustering.n_clusters)
    logger.info("case study: %d statements, %d sampled, %d clusters",
                report.total, len(sample), clustering.n_clusters)
    return CaseStudyResult(
        config=config, workload=workload, db=db, schema=schema,
        stats=stats, report=report, sample=sample, clustering=clustering,
        rows=rows)


def _build_rows(sample: list[SampledQuery], clustering: DBSCANResult,
                stats: StatisticsCatalog, db: Database,
                config: CaseStudyConfig) -> list[ClusterRow]:
    population = [s.area for s in sample]
    rows: list[ClusterRow] = []
    for cluster_id, indices in clustering.clusters().items():
        members = [sample[i] for i in indices]
        member_areas = [m.area for m in members]
        agg = aggregate_cluster(
            cluster_id, member_areas, stats, sigma=config.sigma)
        families = [m.family_id for m in members]
        dominant = max(set(families), key=families.count)
        purity = families.count(dominant) / len(families)
        density = density_contrast(agg, member_areas, population, stats)
        rows.append(ClusterRow(
            cluster_id=cluster_id,
            cardinality=len(members),
            n_users=len({m.user for m in members}),
            area_coverage=area_coverage(agg, stats),
            object_coverage=object_coverage(agg, db),
            description=agg.describe(),
            aggregated=agg,
            density_contrast=density.contrast,
            dominant_family=dominant,
            purity=purity,
        ))
    rows.sort(key=lambda row: row.cardinality, reverse=True)
    return rows
