"""Command-line interface.

Subcommands:

* ``extract`` — print the access area of one SQL statement;
* ``generate`` — write a synthetic SkyServer-style log (JSONL);
* ``process`` — batch-extract a log file (JSONL or flat text,
  auto-detected; flat text folds indented multi-line SQL), cluster the
  areas, and print the Section 6.1 report;
* ``stream`` — monitor a log file incrementally, printing novelty events;
* ``serve`` — run the interest service: an async HTTP API holding the
  intern pool, incremental clusterer, and recommender resident;
* ``recommend`` — fit a recommender on a processed log and print the
  interest areas nearest to ``--sql`` (or the most popular ones);
* ``casestudy`` — run the full pipeline and print the Table-1 report;
* ``qa`` — randomized extraction-conformance harness (soundness +
  metamorphic oracles over random schemas/states, shrinking failures
  to a replayable JSON corpus);
* ``stats`` — render a ``--metrics-out`` dump / ``--trace-out`` trace;
* ``runs`` — the flight recorder: list/show/diff run records.

Observability: every subcommand takes ``--log-level`` / ``--log-format``
(stderr diagnostics; also via ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FORMAT``),
and the pipeline subcommands take ``--trace-out FILE`` (JSONL span
trees) and ``--metrics-out FILE`` (JSON metrics dump).  User-facing
results stay on stdout; diagnostics go through the logging layer.

Flight recorder: ``process``/``casestudy``/``qa``/``stream`` write one
JSON run record per invocation under ``--runs-dir`` (default ``runs/``
or ``REPRO_RUNS_DIR``; ``--no-run-record`` opts out) with the config,
git SHA, stage waterfall, and metrics snapshot; ``--profile`` wraps
the stage bodies in cProfile and embeds hotspot tables plus a
``<run_id>.folded`` flamegraph file.

Examples::

    repro-skyserver extract "SELECT * FROM Photoz WHERE z < 0.1"
    repro-skyserver generate --queries 5000 --out log.jsonl
    repro-skyserver process log.jsonl --metrics-out m.json
    repro-skyserver stream log.jsonl --warmup 200
    repro-skyserver serve --port 8080 --eps 0.12
    repro-skyserver recommend log.jsonl --sql "SELECT * FROM Photoz" -k 3
    repro-skyserver casestudy --queries 4000 --sample 1500
    repro-skyserver qa --n-queries 500 --seed 0
    repro-skyserver qa --replay tests/qa/corpus
    repro-skyserver stats m.json --trace t.jsonl
    repro-skyserver runs list
    repro-skyserver runs diff prev latest
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .analysis import format_summary, format_table1
from .analysis.experiments import CaseStudyConfig, run_case_study
from .core import AccessAreaExtractor, process_log
from .core.stream import StreamMonitor
from .distance.block_sparse import compute_matrix
from .distance.query_distance import QueryDistance
from .obs import (Profiler, Tracer, configure_logging, export,
                  get_logger, get_registry, profile_section, runrec,
                  set_profiler, set_tracer, trace)
from .schema import StatisticsCatalog, skyserver_schema
from .schema.skyserver import CONTENT_BOUNDS
from .sqlparser import SqlError
from .workload import QueryLog, WorkloadConfig, generate_workload

# Fixed name: ``python -m repro.cli`` would otherwise log as __main__.
logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    logging_parent = argparse.ArgumentParser(add_help=False)
    logging_parent.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="diagnostic verbosity on stderr (default: warning, "
             "or REPRO_LOG_LEVEL)")
    logging_parent.add_argument(
        "--log-format", default=None, choices=["human", "json"],
        help="diagnostic format (default: human, or REPRO_LOG_FORMAT)")

    obs_parent = argparse.ArgumentParser(add_help=False,
                                         parents=[logging_parent])
    obs_parent.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write hierarchical span traces as JSONL")
    obs_parent.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metrics registry as JSON on exit")
    # Flight-recorder options shared by the recorded subcommands.
    obs_parent.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-record directory (default: runs/ or REPRO_RUNS_DIR)")
    obs_parent.add_argument(
        "--no-run-record", action="store_true",
        help="skip writing the JSON run record")

    parser = argparse.ArgumentParser(
        prog="repro-skyserver",
        description="Access-area mining from SQL query logs "
                    "(EDBT 2015 SkyServer reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", parents=[logging_parent],
        help="extract the access area of one SQL statement")
    p_extract.add_argument("sql", help="the SELECT statement")
    p_extract.add_argument("--no-consolidate", action="store_true",
                           help="skip the consolidation stage")

    p_generate = sub.add_parser(
        "generate", parents=[logging_parent],
        help="generate a synthetic SkyServer-style query log")
    p_generate.add_argument("--queries", type=int, default=5000)
    p_generate.add_argument("--seed", type=int, default=13)
    p_generate.add_argument("--out", required=True,
                            help="output JSONL path")

    p_process = sub.add_parser(
        "process", parents=[obs_parent],
        help="batch-extract a JSONL log file and cluster the areas")
    p_process.add_argument("log", help="JSONL log path")
    p_process.add_argument("--failures", type=int, default=5,
                           help="failure examples to log")
    p_process.add_argument("--no-cluster", action="store_true",
                           help="skip the clustering stage")
    p_process.add_argument("--eps", type=float, default=0.12)
    p_process.add_argument("--min-pts", type=int, default=5)
    p_process.add_argument("--sample", type=int, default=2000,
                           help="max areas to cluster")
    p_process.add_argument("--cluster-seed", type=int, default=99,
                           help="sampling seed for the clustering stage")
    p_process.add_argument("--store-dir", default=None, metavar="DIR",
                           help="persistent area store: cold runs "
                                "persist areas + a log manifest, warm "
                                "re-runs skip SQL re-extraction "
                                "entirely")
    p_process.add_argument("--profile", dest="profile_hotspots",
                           action="store_true",
                           help="cProfile the extract/cluster stages "
                                "into the run record + folded stacks")

    p_stream = sub.add_parser(
        "stream", parents=[obs_parent],
        help="monitor a JSONL log incrementally")
    p_stream.add_argument("log", help="JSONL log path")
    p_stream.add_argument("--warmup", type=int, default=100)
    p_stream.add_argument("--events", type=int, default=30,
                          help="max events to print")
    p_stream.add_argument("--cluster", action="store_true",
                          help="maintain live DBSCAN labels while "
                               "streaming (incremental clustering)")
    p_stream.add_argument("--eps", type=float, default=0.12)
    p_stream.add_argument("--min-pts", type=int, default=5)

    p_serve = sub.add_parser(
        "serve", parents=[obs_parent],
        help="run the interest service (async HTTP API over the "
             "resident pipeline)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--eps", type=float, default=0.12)
    p_serve.add_argument("--min-pts", type=int, default=5)
    p_serve.add_argument("--warmup", type=int, default=100,
                         help="extracted statements before novelty "
                              "events fire")
    p_serve.add_argument("--store-dir", default=None, metavar="DIR",
                         help="persistent area store backing the "
                              "resident state: ingests are journaled "
                              "and replayed on restart")
    p_serve.add_argument("--min-cluster-size", type=int, default=5,
                         help="smallest weighted cluster the "
                              "recommender indexes")

    p_recommend = sub.add_parser(
        "recommend", parents=[obs_parent],
        help="recommend interest areas mined from a processed log")
    p_recommend.add_argument("log", help="JSONL or flat-text log path")
    p_recommend.add_argument("--sql", default=None,
                             help="the user's query (omit for the "
                                  "globally most popular areas)")
    p_recommend.add_argument("-k", type=int, default=5,
                             help="recommendations to print")
    p_recommend.add_argument("--eps", type=float, default=0.12)
    p_recommend.add_argument("--min-pts", type=int, default=5)
    p_recommend.add_argument("--min-cluster-size", type=int, default=5)
    p_recommend.add_argument("--sample", type=int, default=2000,
                             help="max areas to cluster")
    p_recommend.add_argument("--cluster-seed", type=int, default=99,
                             help="sampling seed above --sample areas")

    p_case = sub.add_parser(
        "casestudy", parents=[obs_parent],
        help="run the full case-study pipeline")
    p_case.add_argument("--queries", type=int, default=4000)
    p_case.add_argument("--sample", type=int, default=1500)
    p_case.add_argument("--eps", type=float, default=0.12)
    p_case.add_argument("--min-pts", type=int, default=5)
    p_case.add_argument("--seed", type=int, default=13)
    p_case.add_argument("--rows", type=int, default=24,
                        help="table rows to print")
    p_case.add_argument("--store-dir", default=None, metavar="DIR",
                        help="persistent area store: warm re-runs "
                             "replay the log manifest instead of "
                             "re-extracting the SQL")
    p_case.add_argument("--profile", dest="profile_hotspots",
                        action="store_true",
                        help="cProfile the pipeline stages into the "
                             "run record + folded stacks")

    p_qa = sub.add_parser(
        "qa", parents=[obs_parent],
        help="run the randomized extraction-conformance harness")
    p_qa.add_argument("--n-queries", type=int, default=200,
                      help="total statements across all profiles")
    p_qa.add_argument("--seed", type=int, default=0)
    p_qa.add_argument("--profile", default="all",
                      choices=["all", "simple", "join", "aggregate",
                               "nested"],
                      help="restrict the sweep to one grammar profile")
    p_qa.add_argument("--max-rows", type=int, default=6,
                      help="max rows per relation in each random state")
    p_qa.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="write shrunken failures as JSON seeds here")
    p_qa.add_argument("--replay", default=None, metavar="DIR",
                      help="replay an existing corpus directory instead "
                           "of sweeping")
    p_qa.add_argument("--shrink", default=True,
                      action=argparse.BooleanOptionalAction,
                      help="delta-debug failures to minimal cases")
    # ``--profile`` is taken by the grammar-profile selector above.
    p_qa.add_argument("--profile-hotspots", dest="profile_hotspots",
                      action="store_true",
                      help="cProfile each QA grammar profile into the "
                           "run record + folded stacks")

    p_stats = sub.add_parser(
        "stats", parents=[logging_parent],
        help="render a metrics dump and/or a trace file")
    p_stats.add_argument("metrics", nargs="?", default=None,
                         help="metrics JSON written by --metrics-out")
    p_stats.add_argument("--trace", default=None, metavar="FILE",
                         help="trace JSONL written by --trace-out")
    p_stats.add_argument("--format", default="table",
                         choices=["table", "prometheus", "json"],
                         help="metrics rendering (default: table)")

    runs_dir_parent = argparse.ArgumentParser(add_help=False)
    runs_dir_parent.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-record directory (default: runs/ or REPRO_RUNS_DIR)")
    p_runs = sub.add_parser(
        "runs", parents=[logging_parent],
        help="list/show/diff flight-recorder run records")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", parents=[runs_dir_parent],
                        help="tabulate all run records")
    r_show = runs_sub.add_parser("show", parents=[runs_dir_parent],
                                 help="print one run record")
    r_show.add_argument("run", nargs="?", default="latest",
                        help="run id prefix, 'latest', or 'prev'")
    r_show.add_argument("--json", action="store_true",
                        help="dump the raw record instead of the "
                             "summary")
    r_diff = runs_sub.add_parser(
        "diff", parents=[runs_dir_parent],
        help="compare two run records (config, stage waterfall, "
             "metrics)")
    r_diff.add_argument("a", nargs="?", default="prev",
                        help="baseline run (id prefix/'latest'/'prev')")
    r_diff.add_argument("b", nargs="?", default="latest",
                        help="candidate run (id prefix/'latest'/'prev')")
    r_diff.add_argument("--json", action="store_true",
                        help="emit the structured diff as JSON")

    return parser


#: Subcommands that leave a flight-recorder run record by default.
_RECORDED_COMMANDS = ("process", "casestudy", "qa", "stream", "serve",
                      "recommend")

#: ``args`` entries excluded from the recorded config: bookkeeping,
#: not knobs that change what the run computes.
_UNRECORDED_ARGS = ("command", "log_level", "log_format", "runs_dir",
                    "no_run_record", "trace_out", "metrics_out")


def _resolve_runs_dir(args: argparse.Namespace) -> str:
    return (getattr(args, "runs_dir", None)
            or os.environ.get("REPRO_RUNS_DIR")
            or runrec.DEFAULT_RUNS_DIR)


def _dispatch(command: str, args: argparse.Namespace) -> int:
    if command == "extract":
        return _cmd_extract(args)
    if command == "generate":
        return _cmd_generate(args)
    if command == "process":
        return _cmd_process(args)
    if command == "stream":
        return _cmd_stream(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "recommend":
        return _cmd_recommend(args)
    if command == "stats":
        return _cmd_stats(args)
    if command == "qa":
        return _cmd_qa(args)
    if command == "runs":
        return _cmd_runs(args)
    return _cmd_casestudy(args)


def _finish_record(recorder, tracer, profiler) -> None:
    """Distill the run's trace/metrics/profile into the record and
    write it (plus the folded flamegraph file when profiling)."""
    if tracer is not None:
        recorder.set_waterfall(tracer.roots + tracer.open_roots)
    recorder.set_metrics(get_registry())
    if profiler is not None:
        recorder.set_profile(profiler)
    path = recorder.finalize()
    if profiler is not None and profiler.sections:
        profiler.write_folded(path.with_suffix(".folded"))
    logger.info("run record written to %s", path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", None),
                      getattr(args, "log_format", None))
    command = args.command

    recording = (command in _RECORDED_COMMANDS
                 and not getattr(args, "no_run_record", False))
    tracer = None
    trace_out = getattr(args, "trace_out", None)
    if trace_out or recording:
        # keep=True so the recorder can distill the stage waterfall
        # from the completed roots after the command returns.
        tracer = Tracer(sink=trace_out, keep=True)
        set_tracer(tracer)
    profiler = None
    if getattr(args, "profile_hotspots", False):
        profiler = Profiler()
        set_profiler(profiler)
    recorder = None
    if recording:
        config = {key: value for key, value in vars(args).items()
                  if key not in _UNRECORDED_ARGS}
        recorder = runrec.RunRecorder(
            command, runs_dir=_resolve_runs_dir(args), config=config,
            argv=list(argv) if argv is not None else None)
    try:
        exit_code = _dispatch(command, args)
        if recorder is not None:
            recorder.set(exit_code=exit_code)
            if exit_code != 0:
                recorder.record["status"] = "failed"
            _finish_record(recorder, tracer, profiler)
        return exit_code
    except BrokenPipeError:
        # Downstream closed the pipe (`runs list | head`) — not a
        # failure of the run; silence the interpreter's closing flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except BaseException as exc:
        # A crashed run still leaves its flight-recorder entry: flush
        # the open span trees as partial traces, then write the record
        # with the error inline.
        if tracer is not None:
            open_roots = tracer.open_roots
            tracer.flush_open()
        else:
            open_roots = []
        if recorder is not None:
            recorder.record["status"] = "error"
            recorder.record["error"] = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                recorder.set_waterfall(tracer.roots + open_roots)
            recorder.set_metrics(get_registry())
            if profiler is not None:
                recorder.set_profile(profiler)
            recorder.finalize()
        raise
    finally:
        if profiler is not None:
            set_profiler(None)
        if tracer is not None:
            set_tracer(None)
            tracer.close()
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            export.write_json(get_registry(), metrics_out)
            logger.info("metrics written to %s", metrics_out)


def _cmd_extract(args: argparse.Namespace) -> int:
    extractor = AccessAreaExtractor(
        skyserver_schema(), consolidate=not args.no_consolidate)
    try:
        result = extractor.extract(args.sql)
    except SqlError as exc:
        print(f"cannot extract: {exc}", file=sys.stderr)
        return 1
    area = result.area
    print(f"relations : {', '.join(area.relations) or '(none)'}")
    print(f"area      : {area.cnf}")
    if area.notes:
        print(f"notes     : {'; '.join(area.notes)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = generate_workload(
        WorkloadConfig(n_queries=args.queries, seed=args.seed))
    workload.log.save(args.out)
    print(f"wrote {len(workload.log):,} statements to {args.out}")
    return 0


def _cmd_process(args: argparse.Namespace) -> int:
    from .store import open_store

    log = QueryLog.load_auto(args.log)
    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    store = open_store(args.store_dir)
    with profile_section("extract"):
        report = process_log(log.statements_with_users(), extractor,
                             store=store)
    report.continuation_lines = log.continuation_lines
    if store is not None:
        mode = "warm replay" if report.warm else "cold run"
        print(f"area store       : {args.store_dir} ({mode}, "
              f"{len(store):,} areas, "
              f"{store.pool.stats.hit_rate:.0%} pool hit rate)")
    print(f"statements       : {report.total:,}")
    print(f"areas extracted  : {report.extraction_count:,} "
          f"({report.extraction_rate:.2%})")
    print(f"  parse errors   : {report.parse_errors}")
    print(f"  lex errors     : {report.lex_errors}")
    print(f"  unsupported    : {report.unsupported_statements}")
    print(f"  CNF failures   : {report.cnf_failures}")
    if report.continuation_lines:
        print(f"  multi-line SQL : {report.continuation_lines} "
              f"continuation lines folded")
    intern_stats = report.intern_stats
    print(f"unique areas     : {intern_stats.pool_size:,} "
          f"({intern_stats.dedup_ratio:.1f}x dedup, "
          f"{intern_stats.hit_rate:.0%} hit rate)")
    for index, kind, message in report.failures[:args.failures]:
        logger.warning("failure example [%s] %r: %s", kind,
                       log[index].sql[:60], message[:50])

    if not args.no_cluster and report.extraction_count:
        with profile_section("cluster"):
            result = _cluster_report(report, schema, args)
        print(f"clusters found   : {result.n_clusters} "
              f"({result.noise_count} noise points)")
    if store is not None:
        store.close()
    return 0


def _cluster_report(report, schema, args: argparse.Namespace):
    """The process subcommand's clustering stage (sampled)."""
    import random

    from .clustering.dbscan import DBSCANResult
    from .clustering.partitioned import partitioned_dbscan
    from .core import dedupe_areas, expand_labels

    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    areas = report.areas()
    for area in areas:
        stats.observe_cnf(area.cnf)
    if len(areas) > args.sample:
        rng = random.Random(args.cluster_seed)
        areas = rng.sample(areas, args.sample)
    distance = QueryDistance(stats)
    unique, weights, inverse = dedupe_areas(areas)
    matrix = compute_matrix(unique, distance, eps=args.eps)
    matrix.stats.n_source_items = len(areas)
    deduped = partitioned_dbscan(
        unique, distance, args.eps, args.min_pts, matrix=matrix,
        weights=weights, on_inexact="fallback")
    return DBSCANResult(expand_labels(deduped.labels, inverse))


def _cmd_stream(args: argparse.Namespace) -> int:
    log = QueryLog.load(args.log)
    schema = skyserver_schema()
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    printed = 0

    def emit(event) -> None:
        nonlocal printed
        if printed < args.events:
            print(event)
            printed += 1

    monitor = StreamMonitor(
        AccessAreaExtractor(schema), stats=stats, on_event=emit,
        warmup=args.warmup,
        cluster_incrementally=args.cluster,
        cluster_eps=args.eps, cluster_min_pts=args.min_pts)
    with trace.span("stream", warmup=args.warmup,
                    cluster=args.cluster), \
            profile_section("stream"):
        monitor.process_many(log.statements())
    print()
    print(monitor.summary())
    if monitor.clusterer is not None:
        labels = monitor.clusterer.labels()
        sizes: dict[int, float] = {}
        for label, weight in zip(labels,
                                 monitor.clusterer.weights()):
            sizes[label] = sizes.get(label, 0.0) + weight
        for label in sorted(sizes):
            name = "noise" if label < 0 else f"cluster {label}"
            print(f"  {name:<12}: {sizes[label]:g} statements")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfig, create_app, run_server

    config = ServiceConfig(
        eps=args.eps, min_pts=args.min_pts,
        warmup=args.warmup, min_cluster_size=args.min_cluster_size,
        store_dir=args.store_dir)
    app = create_app(config)
    print(f"interest service on http://{args.host}:{args.port} "
          f"(eps={config.eps}, min_pts={config.min_pts}) — Ctrl-C to stop")
    if config.store_dir:
        print(f"area store {config.store_dir}: replayed "
              f"{app.state.replayed:,} journalled arrivals "
              f"({app.state.clusterer.n_clusters} clusters)")
    try:
        # On SIGINT, asyncio.run cancels the server task; run_server
        # absorbs the cancellation and returns normally, so the
        # summary prints on both the clean and the double-Ctrl-C path.
        asyncio.run(run_server(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    app.state.close()
    state = app.state.monitor.state
    print(f"\nstopped after {state.processed:,} statements "
          f"({app.state.clusterer.n_clusters} clusters, "
          f"{app.state.clusterer.n_unique} unique areas)")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    import random

    from .recommend import fit_from_areas

    log = QueryLog.load_auto(args.log)
    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    with profile_section("extract"):
        report = process_log(log.statements_with_users(), extractor,
                             keep_failures=False)
    if not report.extraction_count:
        print("recommend: no access areas could be extracted from "
              f"{args.log}", file=sys.stderr)
        return 2
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    areas = report.areas()
    for area in areas:
        stats.observe_cnf(area.cnf)
    if len(areas) > args.sample:
        areas = random.Random(args.cluster_seed).sample(areas,
                                                        args.sample)
    with profile_section("fit"):
        recommender = fit_from_areas(
            areas, stats, extractor, eps=args.eps,
            min_pts=args.min_pts, min_cluster_size=args.min_cluster_size)
    if args.sql is not None:
        try:
            recommendations = recommender.recommend_for_sql(args.sql,
                                                            k=args.k)
        except SqlError as exc:
            print(f"cannot extract an access area: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{len(recommendations)} recommendation(s) from "
              f"{recommender.n_clusters} interest areas")
    else:
        recommendations = recommender.popular(k=args.k)
        print(f"{len(recommendations)} popular interest area(s) of "
              f"{recommender.n_clusters}")
    for rec in recommendations:
        print(f"  {rec.describe()}")
        print(f"    try: {rec.suggested_sql}")
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    config = CaseStudyConfig(
        workload=WorkloadConfig(n_queries=args.queries, seed=args.seed),
        sample_size=args.sample,
        eps=args.eps,
        min_pts=args.min_pts,
        store_dir=args.store_dir,
    )
    with profile_section("casestudy"):
        result = run_case_study(config)
    print(format_summary(result))
    print()
    print(format_table1(result.rows, max_rows=args.rows))
    return 0


def _cmd_qa(args: argparse.Namespace) -> int:
    from .qa import (PROFILES, QAConfig, load_corpus, replay_case,
                     run_qa)

    if args.replay is not None:
        cases = load_corpus(args.replay)
        if not cases:
            print(f"qa: no corpus cases under {args.replay}",
                  file=sys.stderr)
            return 2
        bad = 0
        for path, case in cases:
            failures = replay_case(case)
            verdict = "ok" if not failures else "FAIL"
            print(f"{verdict:>4}  {path.name}  ({case.kind}) {case.sql}")
            for failure in failures:
                bad += 1
                print(f"      {failure.detail}")
        print(f"{len(cases)} case(s), {bad} failure(s)")
        return 0 if bad == 0 else 1

    profiles = PROFILES if args.profile == "all" else (args.profile,)
    config = QAConfig(
        n_queries=args.n_queries, seed=args.seed, profiles=profiles,
        max_rows=args.max_rows, shrink=args.shrink,
        corpus_dir=args.corpus_dir)
    report = run_qa(config)
    print(report.summary())
    for path in report.corpus_paths:
        print(f"shrunken case: {path}")
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.metrics is None and args.trace is None:
        print("stats: provide a metrics JSON file and/or --trace FILE",
              file=sys.stderr)
        return 2
    shown = []
    if args.metrics is not None:
        snapshot = export.load_json(args.metrics)
        if args.format == "prometheus":
            print(export.to_prometheus(snapshot), end="")
        elif args.format == "json":
            print(export.to_json(snapshot))
        else:
            print(export.render_table(snapshot))
        shown.append("metrics")
    if args.trace is not None:
        if shown:
            print()
        roots = trace.load_trace(args.trace)
        print(f"trace: {len(roots)} root span(s)")
        for root in roots:
            print()
            print(trace.format_span_tree(root))
        shown.append("trace")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    runs_dir = _resolve_runs_dir(args)
    try:
        if args.runs_command == "list":
            print(runrec.format_runs_table(runrec.list_runs(runs_dir)))
            return 0
        if args.runs_command == "show":
            record = runrec.resolve_run(args.run, runs_dir)
            if args.json:
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                print(runrec.format_run(record))
            return 0
        # diff
        record_a = runrec.resolve_run(args.a, runs_dir)
        record_b = runrec.resolve_run(args.b, runs_dir)
        diff = runrec.diff_runs(record_a, record_b)
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(runrec.format_diff(diff))
        return 0
    except KeyError as exc:
        print(f"runs: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
