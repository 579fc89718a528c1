"""Serialization and record framing for the persistent area store.

Three concerns live here, shared by every store file format:

* **Fingerprint digests.**  The canonical :class:`~repro.core.area.
  AccessArea` fingerprint is a nested tuple of primitives (strings,
  type-tagged constants) — exactly the order-insensitive identity the
  intern pool keys by.  :func:`fingerprint_digest` encodes it through a
  deterministic, type-tagged byte encoder (NOT pickle, whose output may
  vary across protocol/interpreter details) and hashes it with SHA-256.
  Equal areas — regardless of clause order or literal spelling — map to
  one 32-byte key, which doubles as the segment-log and index key.

* **Payload encoding.**  Areas are pickled (the full algebra object
  graph round-trips).

* **Record framing.**  Every append-only file is a sequence of
  self-delimiting records::

      magic u16 | kind u8 | key_len u16 | payload_len u32 | crc32 u32
      key bytes | payload bytes

  The CRC covers kind+key+payload, so a torn tail (a writer killed
  mid-append) is detected as either a short header/body or a CRC
  mismatch; :func:`scan_records` stops at the first invalid record and
  reports the byte length of the valid prefix — the truncation point of
  crash recovery.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from hashlib import sha256
from typing import Iterator, Optional

RECORD_MAGIC = 0xA5D1
_HEADER = struct.Struct("<HBHII")

#: record kinds
KIND_AREA = 1
KIND_JOURNAL = 2
KIND_META = 3

#: pickle protocol pinned for stable on-disk bytes across sessions
PICKLE_PROTOCOL = 4


class CodecError(ValueError):
    """A payload failed to encode or decode."""


# -- canonical fingerprint encoding -----------------------------------------

def _encode_canonical(value, out: io.BytesIO) -> None:
    """Type-tagged deterministic encoding of a fingerprint component.

    Only the types that actually occur in canonical fingerprints are
    accepted (tuples, strings, bools, ints, floats, None); anything
    else is a hard error rather than a silently unstable key.
    """
    if isinstance(value, tuple):
        out.write(b"T")
        out.write(struct.pack("<I", len(value)))
        for item in value:
            _encode_canonical(item, out)
    elif isinstance(value, bool):
        # before int: bool is an int subclass
        out.write(b"B1" if value else b"B0")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.write(b"S")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out.write(b"I")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
    elif isinstance(value, float):
        # repr round-trips float64 exactly and is stable across runs
        raw = repr(value).encode("ascii")
        out.write(b"F")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
    elif value is None:
        out.write(b"N")
    else:
        raise CodecError(
            f"fingerprint component {value!r} of type "
            f"{type(value).__name__} has no canonical encoding")


def encode_fingerprint(fingerprint: tuple) -> bytes:
    """Deterministic byte encoding of a canonical fingerprint tuple."""
    out = io.BytesIO()
    _encode_canonical(fingerprint, out)
    return out.getvalue()


def fingerprint_digest(area_or_fingerprint) -> bytes:
    """32-byte SHA-256 key of an area (or raw fingerprint tuple)."""
    fingerprint = getattr(area_or_fingerprint, "fingerprint",
                          area_or_fingerprint)
    return sha256(encode_fingerprint(fingerprint)).digest()


def keep_digest(area, digest: bytes) -> None:
    """Let ``area`` keep the digest a store holds it under.  It is not
    pickled (see :class:`~repro.core.area.AccessArea`)."""
    object.__setattr__(area, "_digest", digest)


def held_digest(area) -> Optional[bytes]:
    """The digest ``area`` was appended to or read back from a store
    under, or ``None``; it costs no hashing."""
    return area.__dict__.get("_digest")


# -- area payloads ----------------------------------------------------------

def encode_area(area) -> bytes:
    """Serialize one :class:`~repro.core.area.AccessArea`."""
    return pickle.dumps(area, protocol=PICKLE_PROTOCOL)


def decode_area(payload: bytes):
    """Inverse of :func:`encode_area`."""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # corrupt payload despite a valid CRC
        raise CodecError(f"cannot decode area payload: {exc}") from exc


# -- record framing ---------------------------------------------------------

def pack_record(kind: int, key: bytes, payload: bytes) -> bytes:
    """One framed record (header + key + payload)."""
    if not 0 <= kind <= 0xFF:
        raise CodecError(f"record kind {kind} out of range")
    if len(key) > 0xFFFF:
        raise CodecError(f"record key of {len(key)} bytes is too long")
    crc = zlib.crc32(bytes((kind,)) + key + payload) & 0xFFFFFFFF
    header = _HEADER.pack(RECORD_MAGIC, kind, len(key), len(payload),
                          crc)
    return header + key + payload


def scan_records(buf: bytes) -> tuple[list[tuple[int, bytes, bytes,
                                                 int]], int]:
    """Parse ``buf`` into records, stopping at the first torn one.

    Returns ``(records, valid_length)`` where each record is
    ``(kind, key, payload, offset)`` and ``valid_length`` is the byte
    length of the longest valid record prefix — the crash-recovery
    truncation point.  A partial header, short body, wrong magic, or
    CRC mismatch all end the scan (they are what a killed writer
    leaves behind); data before the tear is always served.
    """
    records: list[tuple[int, bytes, bytes, int]] = []
    pos = 0
    total = len(buf)
    while pos + _HEADER.size <= total:
        magic, kind, key_len, payload_len, crc = _HEADER.unpack_from(
            buf, pos)
        if magic != RECORD_MAGIC:
            break
        body_end = pos + _HEADER.size + key_len + payload_len
        if body_end > total:
            break
        key = buf[pos + _HEADER.size:pos + _HEADER.size + key_len]
        payload = buf[pos + _HEADER.size + key_len:body_end]
        if zlib.crc32(bytes((kind,)) + key + payload) \
                & 0xFFFFFFFF != crc:
            break
        records.append((kind, key, payload, pos))
        pos = body_end
    return records, pos


def iter_records(buf: bytes) -> Iterator[tuple[int, bytes, bytes, int]]:
    """The valid record prefix of ``buf`` (see :func:`scan_records`)."""
    records, _ = scan_records(buf)
    return iter(records)
