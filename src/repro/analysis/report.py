"""Textual reports: the Table-1 layout and run summaries."""

from __future__ import annotations

import math

from .experiments import CaseStudyResult, ClusterRow


def format_table1(rows: list[ClusterRow], max_rows: int | None = None,
                  show_truth: bool = False,
                  show_density: bool = False) -> str:
    """Render cluster rows in the paper's Table 1 layout.

    ``show_density`` adds the Section 6.3 density-contrast refinement
    column; ``show_truth`` appends the synthetic ground-truth
    diagnostics.
    """
    header = (f"{'Cluster':>7} | {'Cardinality':>11} | {'Area':>6} | "
              f"{'Object':>6} | ")
    if show_density:
        header += f"{'Density':>8} | "
    header += "Access area"
    if show_truth:
        header += "  [family/purity]"
    lines = [header, "-" * len(header)]
    selected = rows if max_rows is None else rows[:max_rows]
    for row in selected:
        line = (f"{row.cluster_id:>7} | {row.cardinality:>11,} | "
                f"{_cov(row.area_coverage):>6} | "
                f"{_cov(row.object_coverage):>6} | ")
        if show_density:
            line += f"{_density(row.density_contrast):>8} | "
        line += _truncate(row.description, 72)
        if show_truth:
            line += f"  [{row.dominant_family}/{row.purity:.2f}]"
        lines.append(line)
    return "\n".join(lines)


def _density(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.1f}x"


def format_summary(result: CaseStudyResult) -> str:
    """One-paragraph run summary (Section 6.1-style headline numbers)."""
    report = result.report
    stats = report.intern_stats
    empty_rows = [row for row in result.rows if row.is_empty_area]
    lines = [
        f"log size            : {report.total:,}",
        f"areas extracted     : {report.extraction_count:,} "
        f"({report.extraction_rate:.2%})",
        f"  parse errors      : {report.parse_errors}",
        f"  unsupported stmts : {report.unsupported_statements}",
        f"  CNF failures      : {report.cnf_failures}",
        f"unique areas        : {stats.pool_size:,} "
        f"({stats.dedup_ratio:.1f}x dedup, "
        f"{stats.hit_rate:.0%} intern hit rate)",
        f"clustered sample    : {len(result.sample):,}",
        f"clusters found      : {result.n_clusters}",
        f"noise points        : {result.clustering.noise_count:,}",
        f"empty-area clusters : {len(empty_rows)}",
        f"families recovered  : "
        f"{sorted(result.recovered_families())}",
    ]
    return "\n".join(lines)


def _cov(value: float) -> str:
    if value == 0.0:
        return "0.0"
    if value < 0.001:
        return "<0.001"
    return f"{value:.2f}"


def _truncate(text: str, width: int) -> str:
    return text if len(text) <= width else text[:width - 1] + "…"
