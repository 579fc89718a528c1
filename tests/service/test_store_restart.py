"""Resident state survives a service restart via the area store.

The contract: every ingest is journalled; a new ``AppState`` over the
same ``store_dir`` replays the journal — areas fetched by fingerprint
digest, re-clustered in arrival order, **zero** SQL re-extraction —
and serves bitwise-identical labels.  ``max_resident`` bounds the
intern pool without changing any answer.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import AppState, ServiceConfig, TestClient, create_app
from repro.workload import WorkloadConfig, generate_workload


def _ingest_workload(state, n=120, seed=11):
    workload = generate_workload(WorkloadConfig(n_queries=n, seed=seed))
    for sql, user in workload.log.statements_with_users():
        state.ingest(sql, user=user)
    state.ingest("NOT SQL AT ALL ((", user="mallory")


def _fresh(config):
    return AppState(config, registry=MetricsRegistry())


@pytest.fixture()
def store_config(tmp_path):
    return ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                         min_cluster_size=2,
                         store_dir=str(tmp_path / "s"))


def test_restart_replays_bitwise_identical_state(store_config):
    first = _fresh(store_config)
    _ingest_workload(first)
    labels = list(first.monitor.statement_labels)
    counters = (first.monitor.state.processed,
                first.monitor.state.extracted,
                first.monitor.state.failures)
    sizes = first.snapshot().sizes()
    users = {user: {a.fingerprint: n for a, n in ledger.items()}
             for user, ledger in first.users.items()}
    first.close()

    second = _fresh(store_config)
    assert second.replayed == counters[0]
    assert list(second.monitor.statement_labels) == labels
    assert (second.monitor.state.processed,
            second.monitor.state.extracted,
            second.monitor.state.failures) == counters
    assert second.snapshot().sizes() == sizes
    assert {user: {a.fingerprint: n for a, n in ledger.items()}
            for user, ledger in second.users.items()} == users
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


def test_ingest_continues_after_restart(store_config):
    first = _fresh(store_config)
    _ingest_workload(first, n=60)
    first.close()

    second = _fresh(store_config)
    before = second.monitor.state.processed
    outcome = second.ingest(
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20",
        user="carol")
    assert outcome.status in ("clustered", "unclustered")
    assert second.monitor.state.processed == before + 1
    assert "carol" in second.users or "carol" in second.user_unclustered
    second.close()


def test_max_resident_bounds_pool_not_answers(tmp_path):
    base = ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                         min_cluster_size=2,
                         store_dir=str(tmp_path / "a"))
    bounded = ServiceConfig(eps=0.12, min_pts=3, warmup=10,
                            min_cluster_size=2,
                            store_dir=str(tmp_path / "b"),
                            max_resident=8)
    s1, s2 = _fresh(base), _fresh(bounded)
    _ingest_workload(s1, n=100)
    _ingest_workload(s2, n=100)
    assert s2.interner.resident <= 8
    assert s2.interner.evictions > 0
    assert len(s2.interner) == len(s1.interner)
    assert list(s2.monitor.statement_labels) == \
        list(s1.monitor.statement_labels)
    s1.close()
    s2.close()


def test_max_resident_requires_store_dir():
    with pytest.raises(ValueError):
        ServiceConfig(max_resident=4)


def test_healthz_reports_store_and_monotonic_uptime(store_config):
    state = _fresh(store_config)
    _ingest_workload(state, n=40)
    client = TestClient(create_app(state=state))
    body = client.get("/healthz").json()
    assert body["status"] == "ok"
    assert body["uptime_seconds"] >= 0
    assert body["intern_resident"] == state.interner.resident
    store = body["store"]
    assert store["dir"] == store_config.store_dir
    assert store["backing"] == "disk"
    assert store["journal_length"] == state.monitor.state.processed
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
