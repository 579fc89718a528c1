"""The AreaStore facade: durability, recovery, and observability."""

import os

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.store import AreaStore, fingerprint_digest, open_store


def test_open_store_is_optional(tmp_path):
    assert open_store(None) is None
    assert open_store("") is None
    store = open_store(str(tmp_path / "s"))
    assert isinstance(store, AreaStore)
    store.close()


def test_append_is_idempotent_by_fingerprint(tmp_path, areas):
    with AreaStore(str(tmp_path / "s")) as store:
        digests = [store.append_area(area) for area in areas]
        assert len(store) == len(areas)
        # appending the same areas again only re-hits the index
        assert [store.append_area(a) for a in areas] == digests
        assert len(store) == len(areas)
        for digest, area in zip(digests, areas):
            assert digest in store
            got = store.get_area(digest)
            assert got.fingerprint == area.fingerprint
        assert store.get_area(b"\x00" * 32) is None
        # first-appended order, no duplicates
        assert [d for d, _ in store.iter_areas()] == digests


def test_reopen_recovers_unpublished_index(tmp_path, areas):
    """Records appended after the last checkpoint are re-indexed on
    open — the index ⊆ segments invariant, restored to equality."""
    path = str(tmp_path / "s")
    store = AreaStore(path)
    digests = [store.append_area(area) for area in areas[:3]]
    store.checkpoint()
    late = [store.append_area(area) for area in areas[3:]]
    # no close(): the index snapshot never saw the late appends
    del store

    reopened = AreaStore(path)
    assert len(reopened) == len(areas)
    for digest, area in zip(digests + late, areas):
        assert reopened.get_area(digest).fingerprint == area.fingerprint
    # re-appending post-recovery neither duplicates nor double-counts
    for area in areas:
        reopened.append_area(area)
    assert len(reopened) == len(areas)
    reopened.close()


def test_torn_store_tail_loses_only_the_torn_record(tmp_path, areas):
    path = str(tmp_path / "s")
    store = AreaStore(path)
    kept = [store.append_area(area) for area in areas[:4]]
    del store  # crash: no close, no checkpoint
    # the kill landed mid-append: clip the active segment inside the
    # last record
    segments = os.path.join(path, "segments")
    active = sorted(os.listdir(segments))[-1]
    seg_path = os.path.join(segments, active)
    size = os.path.getsize(seg_path)
    with open(seg_path, "r+b") as handle:
        handle.truncate(size - 5)

    reopened = AreaStore(path)
    assert reopened.segments.truncated_tail_bytes > 0
    # the first three survive; the clipped fourth is simply gone
    assert len(reopened) == 3
    for digest, area in zip(kept[:3], areas[:3]):
        assert reopened.get_area(digest).fingerprint == area.fingerprint
    # index ⊆ segments: nothing in the index points past the tear
    for digest in reopened.index.iter_digests():
        assert reopened.get_area(digest) is not None
    # the lost area can be re-appended and is whole again
    assert reopened.append_area(areas[3]) == kept[3]
    assert len(reopened) == 4
    reopened.close()


def test_journal_round_trip_and_survival(tmp_path):
    path = str(tmp_path / "s")
    entries = [{"digest": None, "user": "u1"},
               {"digest": "ab" * 32, "user": None},
               {"digest": "cd" * 32, "user": "u2"}]
    with AreaStore(path) as store:
        for entry in entries:
            store.append_journal(entry)
        assert list(store.iter_journal()) == entries
        assert store.journal_length == 3
    with AreaStore(path) as reopened:
        assert list(reopened.iter_journal()) == entries


def test_meta_documents_round_trip(tmp_path):
    with AreaStore(str(tmp_path / "s")) as store:
        assert store.load_meta("missing") is None
        store.save_meta("manifest", {"total": 5, "outcomes": [[1, 2]]})
        assert store.load_meta("manifest") == {"total": 5,
                                               "outcomes": [[1, 2]]}
        store.save_meta("manifest", {"total": 6})  # atomic overwrite
        assert store.load_meta("manifest") == {"total": 6}


def test_block_store_round_trip(tmp_path):
    with AreaStore(str(tmp_path / "s")) as store:
        condensed = np.arange(10, dtype=np.float64) / 3.0
        store.blocks.save("ab" * 32, condensed)
        loaded = store.blocks.load("ab" * 32)
        assert loaded is not None
        np.testing.assert_array_equal(np.asarray(loaded), condensed)
        assert store.blocks.load("ef" * 32) is None
        # a flipped payload byte fails the CRC instead of serving junk
        path = os.path.join(str(tmp_path / "s"), "blocks",
                            "ab" * 32 + ".blk")
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert store.blocks.load("ab" * 32) is None


def test_record_is_idempotent(tmp_path, areas):
    registry = MetricsRegistry()
    with AreaStore(str(tmp_path / "s")) as store:
        for area in areas:
            store.append_area(area)
        store.append_area(areas[0])
        store.append_journal({"x": 1})
        store.record(registry)
        store.record(registry)
        assert registry.counter(
            "repro_store_area_appends_total").value == len(areas)
        assert registry.counter(
            "repro_store_area_rehits_total").value == 1
        assert registry.counter(
            "repro_store_journal_appends_total").value == 1
        assert registry.gauge(
            "repro_store_index_entries").value == len(areas)


def test_digest_key_matches_module_function(tmp_path, areas):
    with AreaStore(str(tmp_path / "s")) as store:
        for area in areas:
            assert store.append_area(area) == fingerprint_digest(area)
