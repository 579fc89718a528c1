"""Store-backed pipeline paths: warm replay and idempotent stats.

The load-bearing guarantees:

* a warm ``process_log`` over the same store reproduces the cold
  report — same areas (by fingerprint), same failures, same dedupe
  structure — with **zero** SQL extraction;
* calling ``.record`` twice leaves every counter equal to the true
  total (the cumulative-counter double-counting regression).
"""

from repro.core.pipeline import (AccessAreaInterner, log_manifest_key,
                                 process_log)
from repro.obs.metrics import MetricsRegistry
from repro.store import AreaStore

from .conftest import SQLS

STREAM = [
    (SQLS[0], "alice"),
    (SQLS[1], "bob"),
    ("THIS IS NOT SQL ((", "mallory"),
    (SQLS[0], "alice"),          # duplicate → dedupe weight 2
    (SQLS[2], None),
    (SQLS[3], "carol"),
    (SQLS[4], "bob"),
]


def _fingerprints(report):
    return [item.area.fingerprint for item in report.extracted]


def test_warm_replay_matches_cold_run(tmp_path, extractor):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        cold = process_log(STREAM, extractor, store=store)
    assert not cold.warm

    with AreaStore(path) as store:
        warm = process_log(STREAM, extractor, store=store)
    assert warm.warm
    assert warm.total == cold.total
    assert warm.parse_errors == cold.parse_errors
    assert warm.failures == cold.failures
    assert _fingerprints(warm) == _fingerprints(cold)
    assert [item.user for item in warm.extracted] == \
        [item.user for item in cold.extracted]
    assert [item.index for item in warm.extracted] == \
        [item.index for item in cold.extracted]


def test_warm_replay_skips_extraction(tmp_path, extractor,
                                      monkeypatch):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        process_log(STREAM, extractor, store=store)

    def boom(sql):  # any parse attempt fails the test
        raise AssertionError(f"warm replay re-extracted {sql!r}")

    monkeypatch.setattr(extractor, "extract", boom)
    with AreaStore(path) as store:
        warm = process_log(STREAM, extractor, store=store)
    assert warm.warm
    assert warm.extraction_count == 6


def test_manifest_key_tracks_stream_and_config(extractor, schema):
    from repro.core.extractor import AccessAreaExtractor
    base = log_manifest_key(STREAM, extractor)
    assert log_manifest_key(STREAM, extractor) == base
    assert log_manifest_key(STREAM[:-1], extractor) != base
    reordered = [STREAM[1], STREAM[0]] + STREAM[2:]
    assert log_manifest_key(reordered, extractor) != base
    other = AccessAreaExtractor(schema, predicate_cap=3)
    assert log_manifest_key(STREAM, other) != base


def test_changed_stream_falls_back_to_cold(tmp_path, extractor):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        process_log(STREAM, extractor, store=store)
    with AreaStore(path) as store:
        report = process_log(STREAM + [(SQLS[1], "dave")], extractor,
                             store=store)
        assert not report.warm
        assert report.total == len(STREAM) + 1
    # ... and that longer stream is itself warm next time around
    with AreaStore(path) as store:
        again = process_log(STREAM + [(SQLS[1], "dave")], extractor,
                            store=store)
    assert again.warm


def test_memory_interner_unchanged(areas):
    interner = AccessAreaInterner()
    for area in areas:
        interner.intern(area)
        interner.intern(area)
    assert len(interner) == len(areas)
    assert interner.hits == len(areas)


def test_interner_record_is_idempotent(areas):
    interner = AccessAreaInterner()
    for area in areas:
        interner.intern(area)
        interner.intern(area)
    registry = MetricsRegistry()
    interner.record(registry)
    interner.record(registry)  # the double-counting regression
    assert registry.counter(
        "repro_intern_hits_total").value == len(areas)
    assert registry.counter(
        "repro_intern_misses_total").value == len(areas)
    # later activity still lands as its delta
    interner.intern(areas[0])
    interner.record(registry)
    assert registry.counter(
        "repro_intern_hits_total").value == len(areas) + 1
