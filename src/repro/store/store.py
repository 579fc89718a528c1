"""The :class:`AreaStore` facade — everything under one ``--store-dir``.

Layout::

    <store_dir>/
        segments/seg-NNNNNN.log     append-only records (areas, journal)
        index/index.snap            sorted digest → location run
        index/index.meta.json       snapshot watermark + generation
        meta/<name>.json            atomic JSON documents (manifests)

One :class:`~repro.store.pager.BufferPool` fronts every random read
(segment record fetches, index binary-search probes) and its hit-rate
stats flow to the registry under ``repro_store_pool_*``; the facade
adds the ``repro_store_*`` families for areas, segments, index and
the journal.  All recording is delta-based — safe to call every scrape
from a resident process.

Crash story: segment appends are framed + CRC'd (torn tail truncated
on open); the index snapshot carries a log watermark and open() folds
any segment records past it back into the index (invariant:
index ⊆ segments); meta documents are tmp + ``os.replace``
published.  Opening after ``kill -9`` at any instant therefore yields
exactly the prefix of successfully appended records.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

from ..obs import get_logger
from .codec import (KIND_AREA, KIND_JOURNAL, decode_area, encode_area,
                    fingerprint_digest, keep_digest)
from .index import FingerprintIndex
from .pager import (BufferPool, DEFAULT_CAPACITY, DEFAULT_PAGE_SIZE,
                    fsync_dir)
from .segments import DEFAULT_ROLL_BYTES, SegmentLog

logger = get_logger(__name__)

#: index deltas tolerated before an automatic checkpoint
CHECKPOINT_EVERY = 1024


class AreaStore:
    """Persistent home of interned areas, the ingest journal, and
    named meta documents."""

    def __init__(self, store_dir: str, *,
                 pool_pages: int = DEFAULT_CAPACITY,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 roll_bytes: int = DEFAULT_ROLL_BYTES,
                 durable: bool = False) -> None:
        self.store_dir = store_dir
        os.makedirs(store_dir, exist_ok=True)
        self.pool = BufferPool(pool_pages, page_size)
        self.segments = SegmentLog(
            os.path.join(store_dir, "segments"), self.pool,
            roll_bytes=roll_bytes, durable=durable)
        self.index = FingerprintIndex(
            os.path.join(store_dir, "index"), self.pool)
        self._meta_dir = os.path.join(store_dir, "meta")
        os.makedirs(self._meta_dir, exist_ok=True)
        self._recorded: dict[str, float] = {}
        self._journal_appends = 0
        self._area_appends = 0
        self._area_hits = 0
        self._recover_index()

    # -- recovery -----------------------------------------------------

    def _recover_index(self) -> None:
        """Re-index segment records past the snapshot watermark.

        The snapshot only ever describes published log bytes, so the
        only possible gap after a crash is *missing* entries for
        records appended since the last checkpoint — never dangling
        entries.  Folding the post-watermark suffix into the delta
        restores index ⊆ segments = equality.
        """
        mark_segment, mark_offset = self.index.watermark
        reindexed = 0
        for segment_id in self.segments.segment_ids:
            if segment_id < mark_segment:
                continue
            start = mark_offset if segment_id == mark_segment else 0
            for kind, key, _payload, location in \
                    self.segments.scan_segment(segment_id, start):
                if kind == KIND_AREA and key not in self.index:
                    self.index.put(key, location)
                    reindexed += 1
        if reindexed:
            logger.info("store %s: re-indexed %d area record(s) past "
                        "the snapshot watermark", self.store_dir,
                        reindexed)

    # -- areas --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.index

    def append_area(self, area) -> bytes:
        """Persist ``area`` (idempotent by fingerprint digest) and
        return its 32-byte digest key, which the area keeps
        (:func:`~repro.store.codec.held_digest`)."""
        digest = fingerprint_digest(area)
        if digest in self.index:
            self._area_hits += 1
        else:
            location = self.segments.append(KIND_AREA, digest,
                                            encode_area(area))
            self.index.put(digest, location)
            self._area_appends += 1
            if self.index.dirty >= CHECKPOINT_EVERY:
                self.checkpoint()
        keep_digest(area, digest)
        return digest

    def get_area(self, digest: bytes):
        """The stored area for ``digest``, or ``None``; the area keeps
        its digest."""
        location = self.index.get(digest)
        if location is None:
            return None
        record = self.segments.read(location)
        if record is None:  # pragma: no cover - index ⊆ segments
            return None
        _kind, _key, payload = record
        area = decode_area(payload)
        keep_digest(area, digest)
        return area

    def iter_areas(self) -> Iterator[tuple[bytes, object]]:
        """``(digest, area)`` pairs in first-appended order."""
        seen = set()
        for kind, key, payload, _location in self.segments.scan():
            if kind != KIND_AREA or key in seen:
                continue
            seen.add(key)
            yield key, decode_area(payload)

    # -- journal ------------------------------------------------------

    def append_journal(self, entry: dict) -> None:
        """Append one ingest-journal entry (JSON-serializable)."""
        payload = json.dumps(entry, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self.segments.append(KIND_JOURNAL, b"", payload)
        self._journal_appends += 1

    def iter_journal(self) -> Iterator[dict]:
        """Every journal entry across all segments, in append order."""
        for kind, _key, payload, _location in self.segments.scan():
            if kind != KIND_JOURNAL:
                continue
            try:
                yield json.loads(payload.decode("utf-8"))
            except ValueError:  # pragma: no cover - CRC already passed
                continue

    # -- meta documents -----------------------------------------------

    def save_meta(self, name: str, document: dict) -> None:
        """Atomically publish one JSON document under ``meta/``."""
        path = os.path.join(self._meta_dir, f"{name}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(self._meta_dir)

    def load_meta(self, name: str) -> Optional[dict]:
        path = os.path.join(self._meta_dir, f"{name}.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # -- lifecycle ----------------------------------------------------

    def checkpoint(self) -> None:
        """Publish an index snapshot covering the current log frontier."""
        self.index.checkpoint(self.segments.end_position())

    def close(self) -> None:
        if self.index.dirty:
            self.checkpoint()
        self.pool.clear()

    def __enter__(self) -> "AreaStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability ------------------------------------------------

    def record(self, registry) -> None:
        """Fold store stats into ``registry`` (``repro_store_*``).

        Delta-based for counters; gauges are set to current values.
        """
        if registry is None:
            return
        from ..obs.metrics import record_counter_deltas
        record_counter_deltas(registry, self._recorded, (
            ("repro_store_area_appends_total", self._area_appends),
            ("repro_store_area_rehits_total", self._area_hits),
            ("repro_store_journal_appends_total",
             self._journal_appends),
            ("repro_store_segment_appended_bytes_total",
             self.segments.appended_bytes),
            ("repro_store_recovered_tail_bytes_total",
             self.segments.truncated_tail_bytes)))
        registry.gauge("repro_store_segments").set(
            len(self.segments.segment_ids))
        registry.gauge("repro_store_segment_bytes").set(
            self.segments.total_bytes())
        registry.gauge("repro_store_index_entries").set(len(self.index))
        registry.gauge("repro_store_index_dirty").set(self.index.dirty)
        self.pool.record(registry)


def open_store(store_dir: Optional[str], **kwargs
               ) -> Optional[AreaStore]:
    """``AreaStore(store_dir)`` when a directory is configured, else
    ``None`` — the one-liner call sites use to stay store-optional."""
    if not store_dir:
        return None
    return AreaStore(store_dir, **kwargs)
