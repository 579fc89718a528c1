"""E8 — Section 6.6 (efficiency): throughput and per-stage timings.

The paper reports ~100,000 queries in ~45 s (≈2,200 q/s on 2009 hardware)
with stage ranges Parsing <1-94 ms, Extraction <1-1333 ms, CNF <1 ms-∞,
Consolidation <1-95 ms, and identifies the CNF converter's exponential
blow-up past ~35 predicates — worked around by the predicate cap.
"""

import time

import numpy as np

from repro.algebra.cnf import CNFConversionError
from repro.clustering import pairwise_matrix
from repro.core import AccessAreaExtractor, process_log
from repro.distance import DistanceMatrix, QueryDistance
from repro.obs import trace
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.sqlparser import SqlError, parse, parser
from repro.sqlparser.lexer import scan
from repro.workload import WorkloadConfig, generate_workload
from .conftest import write_artifact


def _parse_by_shape(statements):
    """Parse seconds of the statements the parser parsed in full (the
    first of each shape and every failing one: the paper's stage) and
    of those whose shape it held, from a cold shape memo."""
    parser._SHAPES.clear()
    full, held = [], []
    for sql in statements:
        try:
            hit = parser._SHAPES.get(scan(sql)[0]) is not None
        except SqlError:
            hit = False
        start = time.perf_counter()
        try:
            parse(sql)
        except SqlError:
            pass
        (held if hit else full).append(time.perf_counter() - start)
    return full, held


def _extract_by_shape(statements):
    """Stage timings of the statements a fresh extractor extracted in
    full (the first of each shape, those whose shape it does not hold,
    and every failing one) and of those a held shape answered, from cold
    shape memos.  A traced pass tells the two apart (its ``query`` span
    marks a held shape); an untraced pass, deciding alike, times them."""
    def extract_all():
        parser._SHAPES.clear()
        extractor = AccessAreaExtractor(skyserver_schema())
        timings = []
        for sql in statements:
            try:
                timings.append(extractor.extract(sql).timings)
            except (SqlError, CNFConversionError):
                timings.append(None)
        return timings

    tracer = trace.Tracer()
    with trace.use_tracer(tracer):
        extract_all()
    held = [root.attrs.get("shape") == "held" for root in tracer.roots]
    full, shaped = [], []
    for hit, timings in zip(held, extract_all()):
        if timings is not None:
            (shaped if hit else full).append(timings)
    return full, shaped


def test_throughput_and_stage_timings(benchmark, out_dir):
    workload = generate_workload(WorkloadConfig(n_queries=5000, seed=31))
    statements = workload.log.statements()
    extractor = AccessAreaExtractor(skyserver_schema())

    parser._SHAPES.clear()
    report = benchmark.pedantic(
        lambda: process_log(statements, extractor, keep_failures=False),
        rounds=1, iterations=1)

    total_seconds = sum(s.total for s in report.stage_timings.values())
    throughput = report.extraction_count / max(total_seconds, 1e-9)

    lines = [
        f"queries processed : {report.total:,}",
        f"pipeline seconds  : {total_seconds:.2f}",
        f"throughput        : {throughput:,.0f} q/s "
        f"(paper: ~2,200 q/s)",
    ]
    # The extractor transforms each statement shape once and binds the
    # literals of every later statement of a shape it holds; the stages
    # are the paper's on the statements it extracts in full.
    full, shaped = _extract_by_shape(statements)
    lines += ["", f"stages over full extractions: {len(full):,} (the first "
              f"of each shape, and shapes not held); {len(shaped):,} "
              f"answered by a held shape (held share "
              f"{len(shaped) / (len(full) + len(shaped)):.3f})",
              f"{'stage':<12} {'min ms':>9} {'mean ms':>9} {'max ms':>9}"]
    for stage in ("parse", "extract", "cnf", "consolidate"):
        seconds = [getattr(timings, stage) for timings in full]
        lines.append(f"{stage:<12} {min(seconds) * 1e3:>9.3f} "
                     f"{np.mean(seconds) * 1e3:>9.3f} "
                     f"{max(seconds) * 1e3:>9.3f}")
    for name, group in (("full total", full), ("held total", shaped)):
        seconds = [timings.total for timings in group]
        lines.append(f"{name:<12} {min(seconds) * 1e3:>9.3f} "
                     f"{np.mean(seconds) * 1e3:>9.3f} "
                     f"{max(seconds) * 1e3:>9.3f}")
    # The parser parses each statement shape once and binds the
    # literals of every later statement of that shape.
    full, held = _parse_by_shape(statements)
    lines += ["", f"parse stage by shape: {len(full):,} full parses (the "
              f"first of each shape, and failures: the paper's stage), "
              f"{len(held):,} on a held shape "
              f"(hit share {len(held) / len(statements):.3f})"]
    for name, seconds in (("full", full), ("held", held)):
        lines.append(f"{'parse ' + name:<12} {min(seconds) * 1e3:>9.3f} "
                     f"{np.mean(seconds) * 1e3:>9.3f} "
                     f"{max(seconds) * 1e3:>9.3f}")
    art = "\n".join(lines)
    write_artifact(out_dir, "efficiency.txt", art)
    print("\n" + art)

    assert throughput > 500  # comfortably at the paper's scale
    # Stage ordering: parsing is not the bottleneck end-to-end.
    timings = report.stage_timings
    assert timings["parse"].maximum < 1.0  # seconds


def test_distance_matrix_engine_speedup(benchmark, out_dir):
    """The shared matrix engine vs the naive per-algorithm double loop.

    On a 200-area workload the engine must be ≥ 1.5× faster, through
    one kernel pack over every area and the ``d_tables`` table, and its
    matrix must equal the naive loop bitwise.
    """
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=400, seed=71))
    report = process_log(workload.log.statements(),
                         AccessAreaExtractor(schema), keep_failures=False)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    for item in report.extracted:
        stats.observe_cnf(item.area.cnf)
    areas = report.areas()[:200]

    def metric():
        return QueryDistance(stats, resolution=0.05)

    # The old hot path: every algorithm re-ran the full double loop.
    start = time.perf_counter()
    naive = pairwise_matrix(areas, metric())
    naive_seconds = time.perf_counter() - start

    engine = benchmark.pedantic(
        lambda: DistanceMatrix.compute(areas, metric()),
        rounds=1, iterations=1)
    speedup = naive_seconds / max(engine.stats.elapsed_seconds, 1e-9)

    # Exactness: the matrix == the naive loop.
    assert np.array_equal(engine.to_square(), naive)

    art = "\n".join([
        f"population          : {len(areas)} areas, "
        f"{engine.stats.pairs_total:,} pairs",
        f"naive double loop   : {naive_seconds:.3f} s",
        f"matrix engine       : {engine.stats.elapsed_seconds:.3f} s",
        f"speedup             : {speedup:.1f}x",
        f"engine stats        : {engine.stats.summary()}",
    ])
    write_artifact(out_dir, "distance_matrix_engine.txt", art)
    print("\n" + art)

    assert speedup >= 1.5


def _many_predicate_query(n: int) -> str:
    """An adversarial OR-of-ANDs whose CNF is exponential in n."""
    disjuncts = [f"(ra > {i} AND dec < {i})" for i in range(n)]
    return "SELECT * FROM PhotoObjAll WHERE " + " OR ".join(disjuncts)


def test_cnf_blowup_and_cap(benchmark, out_dir):
    """Past ~35 predicates the uncapped converter explodes; the cap holds."""
    schema = skyserver_schema()
    capped = AccessAreaExtractor(schema, predicate_cap=35)
    uncapped = AccessAreaExtractor(schema, predicate_cap=None)

    # Uncapped: a 2^24-clause CNF must trip the resource guard.
    blew_up = False
    try:
        uncapped.extract(_many_predicate_query(24))
    except CNFConversionError:
        blew_up = True
    assert blew_up

    # Capped: the same statement (and far larger ones) stay bounded.
    result = benchmark.pedantic(
        lambda: capped.extract(_many_predicate_query(60)),
        rounds=1, iterations=1)
    assert result.area.cnf.count_predicates() <= 40

    # Growth curve below the cap (the paper's exponential observation).
    lines = ["predicates -> CNF clauses (uncapped)"]
    for n in (4, 6, 8, 10, 12):
        area = uncapped.extract(_many_predicate_query(n)).area
        lines.append(f"{2 * n:>10} -> {len(area.cnf):,}")
    art = "\n".join(lines) + (
        "\n\n>48 predicates uncapped: CNFConversionError (guarded)"
        "\ncap=35 keeps every statement bounded "
        "(paper: 471 of 12.4M queries exceeded 35 predicates)")
    write_artifact(out_dir, "cnf_blowup.txt", art)
    print("\n" + art)


def test_consolidation_cost_share(benchmark, out_dir):
    """Consolidation is a small share of the pipeline (paper: <1-95 ms)."""
    workload = generate_workload(WorkloadConfig(n_queries=1500, seed=33))
    statements = workload.log.statements()
    schema = skyserver_schema()

    with_consolidation = AccessAreaExtractor(schema, consolidate=True)
    report = benchmark.pedantic(
        lambda: process_log(statements, with_consolidation,
                            keep_failures=False),
        rounds=1, iterations=1)

    consolidate_share = (
        report.stage_timings["consolidate"].total
        / max(sum(s.total for s in report.stage_timings.values()), 1e-9))
    art = f"consolidation share of pipeline: {consolidate_share:.1%}"
    write_artifact(out_dir, "consolidation_share.txt", art)
    print("\n" + art)
    assert consolidate_share < 0.8
