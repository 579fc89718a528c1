"""Streaming extension benchmark (Section 4's operator-notification idea).

Measures incremental-processing throughput and verifies the notification
content on the synthetic log: the zooSpec dec = -100 out-of-range
constants are flagged, new relation combinations and query features are
announced once, and a simulated dialect switch triggers a failure-burst
alarm.
"""

from repro.core import AccessAreaExtractor
from repro.core.stream import EventKind, StreamMonitor
from repro.schema import (CONTENT_BOUNDS, StatisticsCatalog,
                          skyserver_schema)
from repro.workload import WorkloadConfig, generate_workload
from .conftest import write_artifact


def test_stream_monitoring(benchmark, out_dir):
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=4000, seed=51))
    statements = workload.log.statements()
    events = []

    def run():
        events.clear()
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        monitor = StreamMonitor(AccessAreaExtractor(schema), stats=stats,
                                on_event=events.append, warmup=25)
        monitor.process_many(statements)
        return monitor

    monitor = benchmark.pedantic(run, rounds=1, iterations=1)

    art = monitor.summary() + "\n\nfirst events:\n" + "\n".join(
        f"  {event}" for event in events[:12])
    write_artifact(out_dir, "stream_monitoring.txt", art)
    print("\n" + art)

    assert monitor.state.extraction_rate > 0.99
    # Empty-area interest is caught in flight: the first query stepping
    # outside a content-derived access range (southern declinations,
    # impossible redshifts, future ids) raises an operator event.
    oor = [e for e in events
           if e.kind is EventKind.OUT_OF_RANGE_CONSTANT]
    assert oor
    flagged = " ".join(e.detail for e in oor)
    assert ("zooSpec.dec" in flagged or "Photoz.z" in flagged
            or "PhotoObjAll.dec" in flagged)
    # Feature novelty fires a bounded number of times (once per feature).
    features = [e for e in events
                if e.kind is EventKind.NEW_QUERY_FEATURE]
    assert len(features) <= 10


def test_stream_detects_dialect_switch(benchmark, out_dir):
    """A client switching to an unsupported dialect triggers the alarm."""
    schema = skyserver_schema()
    good = ["SELECT * FROM Photoz WHERE z < 0.1"] * 200
    bad = ["SELECT * FROM Photoz WHERE z ?? 0.1"] * 40  # illegal tokens
    events = []

    def run():
        events.clear()
        monitor = StreamMonitor(AccessAreaExtractor(schema),
                                on_event=events.append, warmup=0,
                                failure_window=40,
                                failure_burst_threshold=0.25)
        monitor.process_many(good + bad)
        return monitor

    monitor = benchmark.pedantic(run, rounds=1, iterations=1)
    bursts = [e for e in events
              if e.kind is EventKind.FAILURE_BURST]
    art = (f"statements: {monitor.state.processed}, "
           f"failures: {monitor.state.failures}\n"
           f"burst alarms: {len(bursts)}\n"
           + "\n".join(f"  {b}" for b in bursts))
    write_artifact(out_dir, "stream_dialect_switch.txt", art)
    print("\n" + art)
    assert len(bursts) == 1
