"""Persistent fingerprint → record-location index.

Ordered-segment style (the ``mini_db`` snippet's index idiom, flattened
from a B+-tree to its leaf level): a **snapshot** file of fixed-width
entries sorted by digest, binary-searched page-by-page through the
shared :class:`~repro.store.pager.BufferPool`, plus an in-memory
**delta** dict of entries appended since the last checkpoint.

Entry layout (48 bytes)::

    digest      32 bytes    SHA-256 fingerprint digest (sort key)
    segment_id   4 bytes    u32 little-endian
    offset       8 bytes    u64 little-endian
    length       4 bytes    u32 little-endian

Snapshots are published via tmp-write + atomic ``os.replace`` with a
sidecar watermark recording how far into the segment log the snapshot
covers, so the recovery invariant is **index ⊆ segments**: on open,
any segment records past the watermark are re-scanned and folded into
the delta — an index entry can never point at bytes a crash threw
away, and bytes the crash kept are always re-indexed.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Iterator, Optional

from .pager import BufferPool, fsync_dir
from .segments import RecordLocation

_ENTRY = struct.Struct("<32sIQI")
ENTRY_SIZE = _ENTRY.size

SNAPSHOT_NAME = "index.snap"
WATERMARK_NAME = "index.meta.json"


class FingerprintIndex:
    """Digest → :class:`RecordLocation` map with a paged on-disk run."""

    def __init__(self, directory: str, pool: BufferPool) -> None:
        self.directory = directory
        self.pool = pool
        os.makedirs(directory, exist_ok=True)
        self._delta: dict[bytes, RecordLocation] = {}
        self._snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
        self._watermark_path = os.path.join(directory, WATERMARK_NAME)
        self._generation = 0
        self._snapshot_count = 0
        self._load_snapshot_meta()

    # -- snapshot bookkeeping -----------------------------------------

    def _snapshot_token(self) -> str:
        # Generation-stamped: os.replace swaps content under the same
        # path, so the pool must key on (path, generation).
        return f"{self._snapshot_path}:{self._generation}"

    def _load_snapshot_meta(self) -> None:
        try:
            with open(self._watermark_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            meta = {}
        self._generation = int(meta.get("generation", 0))
        self.watermark = (int(meta.get("segment_id", 0)),
                          int(meta.get("end_offset", 0)))
        try:
            size = os.path.getsize(self._snapshot_path)
        except OSError:
            size = 0
        self._snapshot_count = size // ENTRY_SIZE

    # -- lookups ------------------------------------------------------

    def __len__(self) -> int:
        # put() only receives unindexed digests, so the delta and the
        # snapshot are disjoint.
        return self._snapshot_count + len(self._delta)

    def __contains__(self, digest: bytes) -> bool:
        return self.get(digest) is not None

    def get(self, digest: bytes) -> Optional[RecordLocation]:
        hit = self._delta.get(digest)
        if hit is not None:
            return hit
        return self._search_snapshot(digest)

    def _entry_at(self, position: int) -> Optional[tuple]:
        raw = self.pool.read(self._snapshot_token(),
                             self._snapshot_path,
                             position * ENTRY_SIZE, ENTRY_SIZE)
        if raw is None or len(raw) < ENTRY_SIZE:
            return None
        return _ENTRY.unpack(raw)

    def _search_snapshot(self, digest: bytes
                         ) -> Optional[RecordLocation]:
        lo, hi = 0, self._snapshot_count
        while lo < hi:
            mid = (lo + hi) // 2
            entry = self._entry_at(mid)
            if entry is None:
                return None
            if entry[0] < digest:
                lo = mid + 1
            elif entry[0] > digest:
                hi = mid
            else:
                return RecordLocation(entry[1], entry[2], entry[3])
        return None

    def put(self, digest: bytes, location: RecordLocation) -> None:
        """Index ``digest``, which must not be indexed yet: callers
        check membership first, which keeps :meth:`__len__` a sum."""
        self._delta[digest] = location

    @property
    def dirty(self) -> int:
        """Entries not yet captured by a snapshot."""
        return len(self._delta)

    # -- checkpoint ---------------------------------------------------

    def checkpoint(self, watermark: tuple[int, int]) -> None:
        """Merge the delta into a fresh sorted snapshot and publish it.

        ``watermark`` is ``(segment_id, end_offset)``: the log position
        every entry in this snapshot is guaranteed to be at-or-before.
        Written to a tmp file, fsynced, then ``os.replace``d — a crash
        at any point leaves either the old snapshot or the new one,
        never a mix.
        """
        merged: dict[bytes, RecordLocation] = {}
        for entry in self._iter_snapshot_entries():
            merged[entry[0]] = RecordLocation(entry[1], entry[2],
                                              entry[3])
        merged.update(self._delta)
        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "wb") as fh:
            for digest in sorted(merged):
                loc = merged[digest]
                fh.write(_ENTRY.pack(digest, loc.segment_id,
                                     loc.offset, loc.length))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        # Publish the watermark only after the snapshot it describes.
        next_generation = self._generation + 1
        meta = {"generation": next_generation,
                "segment_id": watermark[0],
                "end_offset": watermark[1],
                "entries": len(merged)}
        meta_tmp = self._watermark_path + ".tmp"
        with open(meta_tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(meta_tmp, self._watermark_path)
        fsync_dir(self.directory)
        self.pool.invalidate(self._snapshot_token())
        self._generation = next_generation
        self._snapshot_count = len(merged)
        self.watermark = watermark
        self._delta.clear()

    def _iter_snapshot_entries(self) -> Iterator[tuple]:
        for position in range(self._snapshot_count):
            entry = self._entry_at(position)
            if entry is None:  # pragma: no cover - snapshot vanished
                return
            yield entry

    def iter_digests(self) -> Iterator[bytes]:
        """Every indexed digest (snapshot order, then fresh deltas)."""
        seen = set()
        for entry in self._iter_snapshot_entries():
            seen.add(entry[0])
            yield entry[0]
        for digest in self._delta:
            if digest not in seen:
                yield digest
