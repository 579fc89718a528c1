"""The pipeline benchmark: SQL text through every layer, on three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest_unique --seed 1 \\
        --seconds 30 --trace 0

Workloads (each run in a fresh process):

``ingest_unique``
    The generator's log (1,042 statements, about 970 distinct areas),
    in order, POSTed to ``/queries`` through the in-process ASGI app of
    a memory-only service (``eps=0.12``, ``min_pts=5``); then 750 GETs
    against the loaded state.  Nearly every statement is a new
    area, so the distance layer's insert cost, which grows with the
    population, dominates.
``serve_repeat``
    Bot traffic: Zipf draws (exponent 1) over 150 of the generator's
    statements, drawn evenly across its families, some re-spelled,
    with the generator's erroring and malformed statements at their
    share of its log and one hostile statement (200 nested parentheses)
    per 200 arrivals.  A store-backed service behind the socket host
    takes 2,400 POSTs on
    one keep-alive connection while a second connection issues a GET
    beside every third POST; then the service is closed and reopened on
    its store.  Repeats skip the distance layer.
``batch_table1``
    The paper's section-6 study (``run_case_study``, ``n_jobs=1``,
    default matrix mode) from SQL log to Table-1 rows.  Its log is then
    taken in one statement per ``process_log`` call, and the interests
    the study found are read 400 times.

A run makes ``round(--seconds / PASS_SECONDS)`` passes of equal work
(``PASS_SECONDS`` in ``workloads.py``), each on fresh program state and
each on its own input, generated from ``--seed * 1000 + pass``: one
seed always gives the same inputs, and a run averages over several
draws of the generator's constants.  Percentiles are taken over the
samples of all passes; rates and times are the median over the passes.

Every timing is reported at a nominal host speed.  The host this runs
on, a few cores of a shared machine, changes speed by a quarter and
more over seconds to minutes, independently of the program, and no
run is long enough to average that out.  So a fixed slice of
pure-Python work (``workloads.reference_slice``) is timed after every
operation, outside the timed ones, and every 10 ms inside the two long
ones, the study and a reopen, from a timer signal.  Each sample is
divided by the host's slowness while it ran: the median of the slices
inside it and of ``HOST_WINDOW`` slices on either side, over
``NOMINAL_SLICE_S``.  A faster program
gives proportionally smaller figures; a faster host does not.  Each
pass line prints the pass's figures as measured, undivided, beside its
median slowness, and ``host.ref_s`` (a longer fixed loop before and
after the run) stays a reading only.

End-to-end metrics (``--trace 0``), every one on every workload:

``setup_s``
    Process start to ready for the first input, as the median over
    five fresh interpreters (``ready.py``): start, the program's
    imports, and the service's construction with its socket bind, or
    the study's configuration.  Each is divided by the slowness of
    slices run just before and after it.
``ingest_per_s``
    Statements taken in per second of the blocking operations that
    take them in: the POSTs of a closed loop with one client (with the
    reads beside them), or the study.
``ingest_p50_ms``, ``ingest_p99_ms``
    Time to take in one statement: a POST from send to full response;
    for the study, one ``process_log`` call.
``read_p50_ms``, ``read_p99_ms``
    Time to answer one read: a GET from issue to full response,
    including any wait behind the POST in flight; for the study, the
    interests nearest to one of its log's statements, with their
    suggested SQL.
``batch_s``
    From the first statement of the pass's input to the program's
    answer for all of it: the stream's POSTs (for ``serve_repeat`` each
    until its answer and the read beside it are both in, then the
    reopen until the labels are back), or SQL log to Table-1 rows.
``peak_rss_mb``
    Peak resident memory of the process.
``ok_share``
    Operations answered without a 5xx, an error or running past the
    timeout, over operations attempted.

``--trace 1`` runs a traced pass between two untraced ones, all three
on the first pass's input, and prints the per-layer ledger of
:mod:`ledger` instead, with self times as measured; the ledger and
every span go to ``.bench_out/``.  ``perfbench/ledgers/`` keeps the
ledgers this benchmark first recorded (seed 1), as the "before" of
later changes.

Every run checks the program's outputs outside the timed windows,
against the program itself (live labels against a batch DBSCAN, labels
after a reopen against those before) and against the generator, which
knows each statement's kind independently: every valid statement must
come back ``clustered``, and the study may fail only on statements the
generator made broken.  A failed check prints ``"correct": false`` and
exits 1.
"""

import argparse
import asyncio
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("ingest_unique", "serve_repeat", "batch_table1")
SETUP_REPEATS = 5
REFERENCE_ITERATIONS = 2_000_000
#: seconds a reference slice (``workloads.reference_slice``) takes at
#: the host speed every timing is reported at.
NOMINAL_SLICE_S = 1e-4
#: slices on either side of a sample that give the host's speed at it.
HOST_WINDOW = 50


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: a reading of host speed,
    printed beside the metrics, never a metric itself."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with under ten samples
    beyond it."""
    if len(samples) * (1.0 - q) < 10:
        raise ValueError(f"{len(samples)} samples cannot support the "
                         f"{q:.0%} percentile")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def at_nominal(result) -> dict[str, list[float]]:
    """Every sample of a pass divided by the host's slowness while it
    ran: the median of the slices inside it and of ``HOST_WINDOW`` on
    either side, over ``NOMINAL_SLICE_S``."""
    host = result.host

    def slowness(first: int, last: int) -> float:
        nearby = host[max(0, first - HOST_WINDOW):last + HOST_WINDOW]
        return statistics.median(nearby) / NOMINAL_SLICE_S

    return {kind: [seconds / slowness(*span) for seconds, span
                   in zip(getattr(result, kind), result.at[kind])]
            for kind in result.at}


def pass_timings(samples: dict[str, list[float]], statements: int,
                 tails: bool = True) -> dict:
    """The timed end-to-end metrics of some passes' samples; the p99s
    only with ``tails``."""
    timings = {
        "ingest_per_s": statements / sum(samples["window"]),
        "ingest_p50_ms": percentile(samples["ingest"], 0.50) * 1e3,
        "read_p50_ms": percentile(samples["reads"], 0.50) * 1e3,
        "batch_s": sum(samples["window"]) + sum(samples["restart"]),
    }
    if tails:
        timings["ingest_p99_ms"] = percentile(samples["ingest"], 0.99) * 1e3
        timings["read_p99_ms"] = percentile(samples["reads"], 0.99) * 1e3
    return timings


def end_to_end(passes, setup_s: float) -> dict:
    """Timings at the nominal host speed: percentiles over the samples
    of every pass, rates and times as the median over the passes;
    set-up, memory and failures as measured."""
    normal = [at_nominal(result) for result in passes]
    per_pass = [pass_timings(samples, result.statements, tails=False)
                for samples, result in zip(normal, passes)]
    pooled = pass_timings({kind: [x for samples in normal
                                  for x in samples[kind]]
                           for kind in normal[0]}, passes[0].statements)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "ingest_per_s": statistics.median(t["ingest_per_s"]
                                          for t in per_pass),
        **{name: pooled[name] for name in (
            "ingest_p50_ms", "ingest_p99_ms", "read_p50_ms",
            "read_p99_ms")},
        "batch_s": statistics.median(t["batch_s"] for t in per_pass),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (attempted - failed) / attempted,
    }


def setup_seconds(workloads, workload: str, workdir: str) -> float:
    """The median over ``SETUP_REPEATS`` fresh interpreters of the time
    to ready, each at the nominal host speed: divided by the host's
    slowness in reference slices run just before and just after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = workloads.slice_times(workloads.EDGE_SLICES)
        seconds = time_to_ready(workload, workdir)
        after = workloads.slice_times(workloads.EDGE_SLICES)
        slowness = statistics.median(before + after) / NOMINAL_SLICE_S
        times.append(seconds / slowness)
    return statistics.median(times)


def time_to_ready(workload: str, workdir: str) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready``."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "ready.py"),
                           workload, workdir],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"ready.py {workload} exited with "
                           f"{child.returncode} before it was ready")
    return ready - started


def pass_seeds(seed: int, count: int) -> list[int]:
    """Each pass's own input seed, derived from ``--seed`` alone."""
    return [seed * 1000 + k for k in range(count)]


async def measure(workloads, ledger_module, args, workdir: str) -> dict:
    """Warm up, time the passes, then check the outputs."""
    workload = workloads.WORKLOADS[args.workload]()

    async def one_pass(seed, prepared, book=None):
        built = await workload.setup(workdir, seed)
        gc.collect()
        started = time.perf_counter()
        if book is not None:
            book.install()
        try:
            result = await workload.run_pass(built, prepared, book)
        finally:
            if book is not None:
                book.uninstall()
        wall = result.wall = time.perf_counter() - started
        # Check now and let go of this pass's program state, so the
        # next pass starts from the same memory.
        result.finish()
        result.finish = None
        return result, wall

    outcome = {}
    if ledger_module is None:
        count = max(1, round(args.seconds
                             / workloads.PASS_SECONDS[args.workload]))
        seeds = pass_seeds(args.seed, count)
        prepared = [workload.prepare(seed) for seed in seeds]
        await workload.warm(prepared[0], workdir)
        outcome["passes"] = [(await one_pass(seed, inputs))[0]
                             for seed, inputs in zip(seeds, prepared)]
    else:
        # The traced pass takes the first pass's input; untraced passes
        # of the same input on both sides of it give the overhead's
        # baseline, so a drift of the host's speed shifts it too.
        seed = pass_seeds(args.seed, 1)[0]
        prepared = workload.prepare(seed)
        await workload.warm(prepared, workdir)
        before, before_wall = await one_pass(seed, prepared)
        book = ledger_module.Ledger()
        traced, wall = await one_pass(seed, prepared, book)
        after, after_wall = await one_pass(seed, prepared)
        outcome.update(passes=[before, traced, after], book=book,
                       wall=wall,
                       untraced_wall=(before_wall + after_wall) / 2)
    return outcome


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import workloads
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: "
              f"{error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {source}", file=sys.stderr)
        return 2
    ledger_module = None
    if args.trace:
        import ledger as ledger_module
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    reference_before = reference_loop()
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if not args.trace:
            setup_s = setup_seconds(workloads, args.workload, workdir)
        outcome = asyncio.run(measure(workloads, ledger_module, args,
                                      workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    reference_after = reference_loop()

    passes = outcome["passes"]
    if args.trace:
        book = outcome["book"]
        values = book.metrics(outcome["wall"], outcome["untraced_wall"])
    else:
        try:
            values = end_to_end(passes, setup_s)
        except ValueError as error:
            print(f"perfbench: {error}; run more passes (--seconds)",
                  file=sys.stderr)
            return 2
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    checks: dict[str, bool] = {}
    for result in passes:
        for name, ok in result.checks.items():
            checks[name] = checks.get(name, True) and ok
    correct = all(checks.values())

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} passes={len(passes)} trace={args.trace}")
    print(f"host.ref_s before={reference_before:.4f} "
          f"after={reference_after:.4f}")
    for number, result in enumerate(passes):
        print(f"input pass={number} " + " ".join(
            f"{key}={value:.4f}" if isinstance(value, float)
            else f"{key}={value}" for key, value in result.shares.items()))
    print(f"samples ingest={sum(len(p.ingest) for p in passes)} "
          f"reads={sum(len(p.reads) for p in passes)} "
          f"run_s={time.perf_counter() - STARTED:.1f}")
    for number, result in enumerate(passes):
        slowness = statistics.median(result.host) / NOMINAL_SLICE_S
        print(f"pass {number} wall_s={result.wall:.3f} host_slowness="
              f"{slowness:.4f} measured: restart_s="
              f"{sum(result.restart):.4f} " + " ".join(
                  f"{name}={value:.6g}" for name, value in pass_timings(
                      {kind: getattr(result, kind) for kind in result.at},
                      result.statements, tails=False).items()))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        document = {
            "workload": args.workload, "seed": args.seed,
            "host.ref_s": [reference_before, reference_after],
            "shares": passes[1].shares,
            "metrics": metrics,
            "attribution": book.attribution(),
        }
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        with open(stem + ".ledger.json", "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
        book.write_spans(stem + ".spans.json")
        print(f"ledger {os.path.relpath(stem, ROOT)}.ledger.json "
              + json.dumps(document["attribution"]))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
