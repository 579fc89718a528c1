"""Round-trips and torn-tail behaviour of the store's codecs."""

import pytest

from repro.store import (CodecError, KIND_AREA, KIND_JOURNAL,
                         decode_area, encode_area, fingerprint_digest,
                         pack_record, scan_records)


def test_area_payload_round_trip(areas):
    for area in areas:
        clone = decode_area(encode_area(area))
        assert clone.fingerprint == area.fingerprint
        assert fingerprint_digest(clone) == fingerprint_digest(area)


#: ``encode_area`` of :data:`HASHED_SQL`'s area, with the hashes of the
#: area, its predicates and its column reference cached, as written
#: before records left cached hashes out.
HASHED_SQL = "SELECT a, s FROM T WHERE a > 1 AND s = 'x'"
HASHED_RECORD = bytes.fromhex(
    "80049522020000000000008c0f726570726f2e636f72652e61726561948c0a41"
    "6363657373417265619493942981947d94288c0972656c6174696f6e73948c01"
    "549485948c03636e66948c11726570726f2e616c67656272612e636e66948c03"
    "434e469493942981947d94288c07636c61757365739468098c06436c61757365"
    "9493942981947d94288c0a70726564696361746573948c18726570726f2e616c"
    "67656272612e70726564696361746573948c17436f6c756d6e436f6e7374616e"
    "745072656469636174659493942981947d94288c037265669468148c09436f6c"
    "756d6e5265669493942981947d94288c0872656c6174696f6e9468068c06636f"
    "6c756d6e948c0161948c055f68617368948a08fb03a056422e211675628c026f"
    "709468148c024f709493948c013e94859452948c0576616c7565944b0168218a"
    "082c2351ef2b400722756285948c0e5f63616e6f6e6963616c5f6b657994288c"
    "026363948c03542e619468258c016e944b01869474948594756268102981947d"
    "9428681368162981947d94286819681b2981947d9428681e6806681f8c017394"
    "68218a084bac2ba0dc82782f7562682268248c013d948594529468288c017894"
    "68218a08996905ad45f8286775628594682a28682b8c03542e739468388c0173"
    "94683b86947494859475628694682a68306841869475628c056e6f7465739429"
    "8c05657861637494888c0c5f66696e6765727072696e74946807684386946821"
    "8a08869d6392d337b18975622e")


def test_area_record_leaves_cached_hashes_out(extractor):
    area = extractor.extract(HASHED_SQL).area
    hash(area)
    for predicate in area.cnf.predicates():
        hash(predicate)
        for ref in predicate.columns:
            hash(ref)
    payload = encode_area(area)
    assert b"_hash" not in payload
    assert len(payload) < len(HASHED_RECORD)
    assert decode_area(payload) == area


def test_record_with_cached_hashes_decodes_to_an_equal_area(extractor):
    area = extractor.extract(HASHED_SQL).area
    clone = decode_area(HASHED_RECORD)
    assert b"_hash" in HASHED_RECORD
    assert clone == area and hash(clone) == hash(area)
    assert fingerprint_digest(clone) == fingerprint_digest(area)
    assert {clone: 0}.get(area) == 0


#: ``encode_area`` of :data:`HASHED_SQL`'s area with its fingerprint
#: and canonical keys cached, as written before records left those keys
#: out (and after they left out the hashes).
KEYED_RECORD = bytes.fromhex(
    "800495e0010000000000008c0f726570726f2e636f72652e61726561948c0a41"
    "6363657373417265619493942981947d94288c0972656c6174696f6e73948c01"
    "549485948c03636e66948c11726570726f2e616c67656272612e636e66948c03"
    "434e469493942981947d94288c07636c61757365739468098c06436c61757365"
    "9493942981947d94288c0a70726564696361746573948c18726570726f2e616c"
    "67656272612e70726564696361746573948c17436f6c756d6e436f6e7374616e"
    "745072656469636174659493942981947d94288c037265669468148c09436f6c"
    "756d6e5265669493942981947d94288c0872656c6174696f6e9468068c06636f"
    "6c756d6e948c01619475628c026f709468148c024f709493948c013e94859452"
    "948c0576616c7565944b01756285948c0e5f63616e6f6e6963616c5f6b657994"
    "288c026363948c03542e619468248c016e944b01869474948594756268102981"
    "947d9428681368162981947d94286819681b2981947d9428681e6806681f8c01"
    "73947562682168238c013d948594529468278c01789475628594682928682a8c"
    "03542e739468378c017394683a869474948594756286946829682f6840869475"
    "628c056e6f74657394298c05657861637494888c0c5f66696e6765727072696e"
    "749468076842869475622e")


def test_area_record_leaves_cached_keys_out(extractor):
    area = extractor.extract(HASHED_SQL).area
    fingerprint_digest(area)
    assert "_fingerprint" in area.__dict__
    payload = encode_area(area)
    for cached in (b"_fingerprint", b"_canonical_key"):
        assert cached not in payload
    assert len(payload) < len(KEYED_RECORD)
    clone = decode_area(payload)
    assert clone == area and hash(clone) == hash(area)
    assert fingerprint_digest(clone) == fingerprint_digest(area)


def test_record_with_cached_keys_decodes_to_an_equal_area(extractor):
    area = extractor.extract(HASHED_SQL).area
    for cached in (b"_fingerprint", b"_canonical_key"):
        assert cached in KEYED_RECORD
    clone = decode_area(KEYED_RECORD)
    assert clone == area and hash(clone) == hash(area)
    assert clone.fingerprint == area.fingerprint
    assert fingerprint_digest(clone) == fingerprint_digest(area)
    assert {clone: 0}.get(area) == 0


def test_digest_is_canonical(extractor):
    """Clause order and literal spelling don't change the key."""
    a = extractor.extract(
        "SELECT a FROM T WHERE a > 1 AND a < 3").area
    b = extractor.extract(
        "SELECT a FROM T WHERE a < 3.0 AND a > 1.00").area
    assert fingerprint_digest(a) == fingerprint_digest(b)
    c = extractor.extract(
        "SELECT a FROM T WHERE a > 1 AND a < 4").area
    assert fingerprint_digest(a) != fingerprint_digest(c)


def test_digest_distinguishes_lookalike_primitives():
    """The encoder is type-tagged: 1, 1.0, True and "1" differ."""
    keys = {fingerprint_digest((value,))
            for value in (1, 1.0, True, "1", None)}
    assert len(keys) == 5
    # nesting matters too
    assert fingerprint_digest((("a",), "b")) != \
        fingerprint_digest(("a", ("b",)))


def test_digest_rejects_unencodable_components():
    with pytest.raises(CodecError):
        fingerprint_digest((object(),))


def test_scan_records_round_trip():
    records = [
        pack_record(KIND_AREA, b"k" * 32, b"payload-one"),
        pack_record(KIND_JOURNAL, b"", b'{"x":1}'),
        pack_record(KIND_AREA, b"j" * 32, b""),
    ]
    buf = b"".join(records)
    parsed, valid = scan_records(buf)
    assert valid == len(buf)
    assert [(k, key, payload) for k, key, payload, _ in parsed] == [
        (KIND_AREA, b"k" * 32, b"payload-one"),
        (KIND_JOURNAL, b"", b'{"x":1}'),
        (KIND_AREA, b"j" * 32, b""),
    ]
    offsets = [offset for _, _, _, offset in parsed]
    assert offsets == [0, len(records[0]),
                       len(records[0]) + len(records[1])]


def test_scan_records_truncates_any_torn_tail():
    """Cutting the last record at *every* byte boundary yields exactly
    the two whole records and the tear offset — the recovery point."""
    head = pack_record(KIND_AREA, b"a" * 32, b"first")
    mid = pack_record(KIND_JOURNAL, b"", b"second")
    tail = pack_record(KIND_AREA, b"b" * 32, b"third")
    for cut in range(len(tail)):
        parsed, valid = scan_records(head + mid + tail[:cut])
        assert len(parsed) == 2
        assert valid == len(head) + len(mid)


def test_scan_records_stops_at_corruption():
    first = pack_record(KIND_AREA, b"a" * 32, b"first")
    second = pack_record(KIND_AREA, b"b" * 32, b"second")
    corrupted = bytearray(first + second)
    corrupted[len(first) + 20] ^= 0xFF  # flip one body byte
    parsed, valid = scan_records(bytes(corrupted))
    assert len(parsed) == 1
    assert valid == len(first)
