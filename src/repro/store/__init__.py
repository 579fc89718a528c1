"""Persistent area store: crash-safe segments, paged index, journal.

See :mod:`repro.store.store` for the facade and the on-disk layout,
and ``docs/architecture.md`` for the file formats and the recovery
protocol.
"""

from .codec import (CodecError, KIND_AREA, KIND_JOURNAL, KIND_META,
                    decode_area, encode_area, encode_fingerprint,
                    fingerprint_digest, iter_records, pack_record,
                    scan_records)
from .index import FingerprintIndex
from .pager import BufferPool, PoolStats
from .segments import RecordLocation, SegmentLog
from .store import AreaStore, open_store

__all__ = [
    "AreaStore", "open_store",
    "BufferPool", "PoolStats",
    "FingerprintIndex", "SegmentLog", "RecordLocation",
    "CodecError", "KIND_AREA", "KIND_JOURNAL", "KIND_META",
    "decode_area", "encode_area", "encode_fingerprint",
    "fingerprint_digest", "iter_records", "pack_record",
    "scan_records",
]
