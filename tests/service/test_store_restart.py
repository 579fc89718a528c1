"""Resident state survives a service restart via the area store.

The contract: every ingest is journalled; a new ``AppState`` over the
same ``store_dir`` replays the journal — areas fetched by fingerprint
digest, re-clustered in arrival order, **zero** SQL re-extraction —
and serves bitwise-identical labels.  Per arrival, the label the replay
yields equals the one the uninterrupted run answered.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.stream import StreamMonitor
from repro.obs.metrics import MetricsRegistry
from repro.service import AppState, ServiceConfig, TestClient, create_app
from repro.store import AreaStore
from repro.store.segments import SegmentLog
from repro.workload import WorkloadConfig, generate_workload


def _ingest_workload(state, n=120, seed=11):
    workload = generate_workload(WorkloadConfig(n_queries=n, seed=seed))
    outcomes = [state.ingest(sql, user=user)
                for sql, user in workload.log.statements_with_users()]
    outcomes.append(state.ingest("NOT SQL AT ALL ((", user="mallory"))
    return outcomes


def _labels(outcomes):
    """Each arrival's label as answered (``None`` when it failed)."""
    return [outcome.label for outcome in outcomes]


def _resident(state):
    """What a reopen must restore.  Ledgers are keyed by unique index:
    equal keys mean the same areas in the same first-arrival positions.
    Query features are learned from parse trees, which the journal does
    not hold."""
    seen = state.monitor.state
    return (state.clusterer.labels(), state.clusterer.weights(),
            state.users,
            (seen.processed, seen.extracted, seen.failures, seen.relations,
             seen.columns, seen.relation_sets))


def _fresh(config):
    return AppState(config, registry=MetricsRegistry())


@pytest.fixture()
def store_config(tmp_path):
    return ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                         min_cluster_size=2,
                         store_dir=str(tmp_path / "s"))


@pytest.fixture()
def replay_labels(monkeypatch):
    """The label of each arrival a journal replay re-applies, in order."""
    labels = []
    replay = StreamMonitor.replay

    def recording(monitor, area):
        label = replay(monitor, area)
        labels.append(label)
        return label

    monkeypatch.setattr(StreamMonitor, "replay", recording)
    return labels


def test_restart_replays_bitwise_identical_state(store_config,
                                                 replay_labels):
    first = _fresh(store_config)
    labels = _labels(_ingest_workload(first))
    resident = _resident(first)
    sizes = first.snapshot().sizes()
    first.close()

    second = _fresh(store_config)
    assert second.replayed == len(labels)
    assert replay_labels == labels
    assert _resident(second) == resident
    assert second.snapshot().sizes() == sizes
    second.close()


def test_restart_does_not_reextract_sql(store_config, monkeypatch):
    first = _fresh(store_config)
    _ingest_workload(first, n=60)
    first.close()

    calls = []
    from repro.core.extractor import AccessAreaExtractor
    original = AccessAreaExtractor.extract

    def counting(self, sql):
        calls.append(sql)
        return original(self, sql)

    monkeypatch.setattr(AccessAreaExtractor, "extract", counting)
    second = _fresh(store_config)
    assert second.replayed > 0
    assert calls == []  # warm open parsed nothing
    second.close()


def test_hostile_statement_replays_after_restart(store_config,
                                                 replay_labels):
    # A statement nested past the parser's limit is journalled as a
    # failure, so a reopened store numbers later arrivals the same way.
    valid = ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20",
             "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 11 AND 21")
    hostile = ("SELECT * FROM PhotoObj WHERE " + "(" * 400 + "ra > 1"
               + ")" * 400)
    first = _fresh(store_config)
    labels = _labels(_ingest_workload(first, n=40))
    outcomes = [first.ingest(sql, user="eve")
                for sql in (valid[0], hostile, valid[1])]
    assert [o.status for o in outcomes][1] == "failed"
    assert [o.index for o in outcomes] == \
        [outcomes[0].index + k for k in range(3)]
    labels += _labels(outcomes)
    resident = _resident(first)
    first.close()

    second = _fresh(store_config)
    assert second.replayed == len(labels)
    assert replay_labels == labels
    assert _resident(second) == resident
    second.close()


def test_ingest_continues_after_restart(store_config):
    first = _fresh(store_config)
    _ingest_workload(first, n=60)
    first.close()

    second = _fresh(store_config)
    before = second.monitor.state.processed
    outcome = second.ingest(
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20",
        user="carol")
    assert outcome.status == "clustered"
    assert second.monitor.state.processed == before + 1
    assert "carol" in second.users
    second.close()


def test_reopen_fetches_each_stored_area_once(store_config, monkeypatch,
                                             replay_labels):
    first = _fresh(store_config)
    statements = generate_workload(WorkloadConfig(
        n_queries=60, seed=11)).log.statements_with_users()
    labels = _labels([first.ingest(sql, user=user)
                      for sql, user in statements * 3])
    digests = [bytes.fromhex(entry["digest"])
               for entry in first.store.iter_journal() if entry["digest"]]
    resident = _resident(first)
    first.close()

    fetched = []
    get_area = AreaStore.get_area

    def counting(store, digest):
        fetched.append(digest)
        return get_area(store, digest)

    monkeypatch.setattr(AreaStore, "get_area", counting)
    second = _fresh(store_config)
    assert len(set(digests)) < len(digests)
    assert sorted(fetched) == sorted(set(digests))
    assert replay_labels == labels
    assert _resident(second) == resident
    second.close()


def _repeat_arrivals():
    """A log, then its statements again, then respelled: repeats that
    hit the monitor's text memo and repeats it extracts again."""
    statements = generate_workload(WorkloadConfig(
        n_queries=60, seed=11)).log.statements_with_users()
    return (statements + statements
            + [(sql + "  ", user) for sql, user in statements])


def _store_bytes(store_dir):
    files = {}
    for root, _dirs, names in os.walk(store_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, store_dir)] = handle.read()
    return files


def test_repeat_arrival_computes_no_digest(store_config, monkeypatch):
    from repro.service import state as state_module
    from repro.store import codec, store

    state = _fresh(store_config)
    sql = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20"
    first = state.ingest(sql, user="a")
    calls = []
    for module in (codec, store, state_module):
        digest = module.fingerprint_digest
        monkeypatch.setattr(
            module, "fingerprint_digest",
            lambda area, _digest=digest: calls.append(area) or _digest(area))
    repeats = [state.ingest(sql, user="b"),         # the text memo's area
               state.ingest(sql + "  ", user="c")]  # extracted again
    assert calls == []
    assert {o.unique_index for o in repeats} == {first.unique_index}
    digests = [entry["digest"] for entry in state.store.iter_journal()]
    assert len(digests) == 3 and len(set(digests)) == 1
    state.close()


def test_held_digests_journal_what_hashing_would(tmp_path, monkeypatch):
    # Against a service that hashes every repeat again: the same
    # answers and, byte for byte, the same journal and stored records.
    from repro.service import state as state_module

    def run(store_dir):
        state = _fresh(ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                                     min_cluster_size=2,
                                     store_dir=str(store_dir)))
        answers = [state.ingest(sql, user=user)
                   for sql, user in _repeat_arrivals()]
        state.close()
        return answers, _store_bytes(store_dir)

    held = run(tmp_path / "held")
    with monkeypatch.context() as patch:
        patch.setattr(state_module, "held_digest", lambda area: None)
        hashed = run(tmp_path / "hashed")
    assert held[0] == hashed[0]
    assert held[1] == hashed[1]


def test_reopen_answers_as_an_uninterrupted_run(tmp_path, monkeypatch,
                                               replay_labels):
    # After a reopen the pooled areas are the stored ones read back,
    # which keep the digests they were fetched by.
    from repro.service import state as state_module

    arrivals = _repeat_arrivals()

    def config(name):
        return ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                             min_cluster_size=2,
                             store_dir=str(tmp_path / name))

    whole = _fresh(config("whole"))
    expected = [whole.ingest(sql, user=user) for sql, user in arrivals]
    journal = list(whole.store.iter_journal())
    resident = _resident(whole)
    whole.close()

    cut = len(arrivals) // 3
    first = _fresh(config("cut"))
    answers = [first.ingest(sql, user=user) for sql, user in arrivals[:cut]]
    first.close()
    second = _fresh(config("cut"))
    assert replay_labels == _labels(expected[:cut])
    hashed = []
    digest = state_module.fingerprint_digest
    monkeypatch.setattr(state_module, "fingerprint_digest",
                        lambda area: hashed.append(area) or digest(area))
    answers += [second.ingest(sql, user=user)
                for sql, user in arrivals[cut:]]
    assert hashed == []
    assert [(a.status, a.label, a.unique_index) for a in answers] == \
        [(a.status, a.label, a.unique_index) for a in expected]
    assert list(second.store.iter_journal()) == journal
    assert _resident(second) == resident
    second.close()


def test_restart_in_a_new_interpreter_keeps_area_identity(tmp_path):
    # String hashes differ between interpreters.  An area read back from
    # the store must not keep the writer's cached hash, or a repeat
    # after a restart would become a second unique area.
    script = (
        "import sys\n"
        "from repro.obs.metrics import MetricsRegistry\n"
        "from repro.service import AppState, ServiceConfig\n"
        "state = AppState(ServiceConfig(store_dir=sys.argv[1]),\n"
        "                 registry=MetricsRegistry())\n"
        "outcome = state.ingest(sys.argv[2])\n"
        "print(state.replayed, outcome.unique_index,\n"
        "      state.clusterer.n_unique)\n"
        "state.close()\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    sql = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20"
    printed = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "s"), sql],
            env=env, capture_output=True, text=True, check=True)
        printed.append(run.stdout.split())
    assert printed == [["0", "0", "1"], ["1", "0", "1"], ["2", "0", "1"]]


def test_extraction_fault_fails_one_arrival(store_config, monkeypatch,
                                            replay_labels):
    # Any exception out of extraction is a failed arrival: answered 200,
    # logged with its traceback, journalled, numbered the same after a
    # restart, and not remembered, so the text extracts once the fault
    # is gone.
    import logging

    from repro.core.extractor import AccessAreaExtractor

    valid = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20"
    faulty = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 11 AND 21"
    state = _fresh(store_config)
    client = TestClient(create_app(state=state))

    def post(sql):
        response = client.post("/queries", json={"sql": sql, "user": "eve"})
        assert response.status == 200
        return response.json()

    def boom(extractor, sql):
        raise RuntimeError("boom")

    logged = []
    handler = logging.Handler()
    handler.emit = logged.append
    stream_logger = logging.getLogger("repro.core.stream")
    stream_logger.addHandler(handler)
    try:
        answers = [post(valid)]
        assert answers[0]["status"] == "clustered"
        with monkeypatch.context() as patch:
            patch.setattr(AccessAreaExtractor, "extract", boom)
            answers.append(post(faulty))
    finally:
        stream_logger.removeHandler(handler)
    assert (answers[1]["status"], answers[1]["error"]) == \
        ("failed", "RuntimeError: boom")
    assert [record.exc_info[0] for record in logged] == [RuntimeError]
    assert state.monitor.state.processed == state.version == 2
    answers.append(post(faulty))
    assert answers[2]["status"] == "clustered"
    assert len(list(state.store.iter_journal())) == 3
    resident = _resident(state)
    state.close()

    second = _fresh(store_config)
    assert second.replayed == 3
    assert second.monitor.state.failures == 1
    assert replay_labels == [answer["label"] for answer in answers]
    assert _resident(second) == resident
    assert second.ingest(valid).index == 3
    second.close()


#: statements whose constants the interval algebra cannot place: an
#: infinity that starts a ray, an integer beyond the float range, a
#: point at an infinity (also where a literal too long for ``int``
#: parses as a float), and folding whose result leaves the float range
#: (an integer product, or arithmetic that overflows on the way).
OFF_THE_LINE = ("SELECT ra FROM PhotoObj WHERE ra > 1e400",
                "SELECT ra FROM PhotoObj WHERE ra < -1e400",
                "SELECT objid FROM PhotoObj WHERE objid = " + "9" * 400,
                "SELECT ra FROM PhotoObj WHERE ra = 1e400",
                "SELECT objid FROM PhotoObj WHERE objid = " + "9" * 5000,
                "SELECT objid FROM PhotoObj WHERE objid = "
                + "9" * 4000 + " * " + "9" * 4000,
                "SELECT objid FROM PhotoObj WHERE objid = " + "9" * 400
                + " / 3",
                "SELECT objid FROM PhotoObj WHERE objid = 1.5 + "
                + "9" * 400)


def test_unplaceable_constants_fail_and_replay(store_config,
                                              replay_labels):
    # Each one is an ordinary failed statement: answered 200, journalled,
    # and numbered the same before and after a restart.
    valid = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20"
    state = _fresh(store_config)
    client = TestClient(create_app(state=state))
    answers = []
    for sql in OFF_THE_LINE:
        for arrival in (valid, sql):
            response = client.post("/queries",
                                   json={"sql": arrival, "user": "eve"})
            assert response.status == 200
            answers.append(response.json())
    n = 2 * len(OFF_THE_LINE)
    assert [a["index"] for a in answers] == list(range(n))
    assert [a["status"] for a in answers[1::2]] == \
        ["failed"] * len(OFF_THE_LINE)
    assert all(a["error"].startswith("UnsupportedStatementError: ")
               for a in answers[1::2])
    assert state.version == state.monitor.state.processed == n
    assert len(list(state.store.iter_journal())) == n
    before = client.post("/queries", json={"sql": valid}).json()
    resident = _resident(state)
    state.close()

    second = _fresh(store_config)
    assert second.replayed == n + 1
    assert second.monitor.state.failures == len(OFF_THE_LINE)
    assert replay_labels == [answer["label"]
                             for answer in answers + [before]]
    assert _resident(second) == resident
    after = second.ingest(valid)
    assert before["index"] == n and after.index == n + 1
    second.close()


def test_journalled_point_at_infinity_replays_as_failure(tmp_path,
                                                         monkeypatch,
                                                         replay_labels):
    """A store written while extraction still placed ``ra = 1e400`` at
    +inf holds that area.  Reopened, it replays as the failed arrival
    the statement is now, so no cluster forms around a point at
    infinity and every read answers 200."""
    import repro.core.extractor as extractor_module
    from repro.algebra.predicates import Op

    config = ServiceConfig(eps=0.12, min_pts=3,
                           store_dir=str(tmp_path / "s"))
    point = "SELECT ra FROM PhotoObj WHERE ra = 1e400"
    statements = generate_workload(WorkloadConfig(
        n_queries=60, seed=3)).log.statements_with_users()
    arrivals = statements + [(statements[0][0], "n")] + [(point, "n")] * 5
    with monkeypatch.context() as patch:
        patch.setattr(extractor_module, "_UNPLACEABLE", {
            value: tuple(op for op in ops if op is not Op.EQ)
            for value, ops in extractor_module._UNPLACEABLE.items()})
        first = _fresh(config)
        labels = _labels([first.ingest(sql, user=user)
                          for sql, user in arrivals])
        placed = first.monitor.state.failures
        first.close()

    second = _fresh(config)
    assert second.replayed == len(arrivals)
    assert second.monitor.state.failures == placed + 5
    assert replay_labels == labels[:-5] + [None] * 5
    client = TestClient(create_app(state=second))
    clusters = client.get("/clusters").json()["clusters"]
    assert clusters
    reads = [f"/clusters/{row['id']}" for row in clusters]
    reads += [f"/users/{user}/interests" for user in second.users]
    assert "/users/n/interests" in reads
    for path in reads + ["/recommend"]:
        assert client.get(path).status == 200, path
    for sql, _user in statements[:10]:
        assert client.get("/recommend", params={"sql": sql}).status \
            in (200, 422)
    assert client.post("/queries", json={"sql": point}).json()[
        "status"] == "failed"
    second.close()


def test_healthz_reports_store_and_monotonic_uptime(store_config):
    state = _fresh(store_config)
    _ingest_workload(state, n=40)
    client = TestClient(create_app(state=state))
    body = client.get("/healthz").json()
    assert body["status"] == "ok"
    assert body["uptime_seconds"] >= 0
    assert body["ingested"] == state.monitor.state.processed
    assert body["unique_areas"] == state.clusterer.n_unique
    store = body["store"]
    assert store["dir"] == store_config.store_dir
    assert store["segment_bytes"] > 0
    assert 0.0 <= store["buffer_pool"]["hit_rate"] <= 1.0
    assert store["buffer_pool"]["resident_bytes"] >= 0
    state.close()


def test_healthz_without_store_has_no_store_section():
    state = AppState(ServiceConfig(warmup=5),
                     registry=MetricsRegistry())
    client = TestClient(create_app(state=state))
    body = client.get("/healthz").json()
    assert body["uptime_seconds"] >= 0
    assert "store" not in body


def test_healthz_reads_no_journal(store_config, monkeypatch):
    state = _fresh(store_config)
    _ingest_workload(state, n=40)
    client = TestClient(create_app(state=state))
    scans = []
    scan = SegmentLog.scan

    def counting(log, *args, **kwargs):
        scans.append(args)
        return scan(log, *args, **kwargs)

    monkeypatch.setattr(SegmentLog, "scan", counting)
    assert client.get("/healthz").status == 200
    assert scans == []
    state.close()


def test_ingest_records_nothing_until_scraped(store_config, monkeypatch):
    # Counters increment at the event; the store's stats are folded
    # into the registry when /metrics is scraped, not on every ingest.
    records = []
    record = AreaStore.record

    def counting(store, registry):
        records.append(registry)
        return record(store, registry)

    monkeypatch.setattr(AreaStore, "record", counting)
    state = _fresh(store_config)
    _ingest_workload(state, n=40)
    assert records == []
    client = TestClient(create_app(state=state))
    text = client.get("/metrics").text
    assert len(records) == 1
    arrivals = state.monitor.state.processed
    assert f"repro_store_journal_appends_total {arrivals}\n" in text
    state.close()
