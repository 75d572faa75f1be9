"""Typed errors on torn/short serialized buffers (crash debris)."""

import pytest

from repro.constraints.linear import LinearConstraint
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import StorageError, TruncatedRecordError
from repro.storage.serialize import (
    KeyCodec,
    decode_tuple,
    encode_tuple,
    tuple_record_size,
)


def _tuple():
    return GeneralizedTuple([
        LinearConstraint((1.0, 0.0), 2.0, "<="),
        LinearConstraint((0.0, 1.0), 3.0, "<="),
        LinearConstraint((-1.0, -1.0), 0.0, "<="),
    ])


@pytest.mark.parametrize("key_bytes", [4, 8])
def test_key_decode_rejects_wrong_width(key_bytes):
    codec = KeyCodec(key_bytes)
    good = codec.encode(1.5)
    assert codec.decode(good) == 1.5
    with pytest.raises(TruncatedRecordError, match="key buffer"):
        codec.decode(good[:-1])
    with pytest.raises(TruncatedRecordError):
        codec.decode(good + b"\x00")


def test_decode_keys_rejects_short_buffer():
    codec = KeyCodec(4)
    data = codec.encode_keys([1.0, 2.0, 3.0])
    assert codec.decode_keys(data, 3) == [1.0, 2.0, 3.0]
    with pytest.raises(TruncatedRecordError, match="cannot hold"):
        codec.decode_keys(data, 4)
    with pytest.raises(TruncatedRecordError):
        codec.decode_keys(data[:-1], 3)
    with pytest.raises(TruncatedRecordError, match="cannot hold"):
        codec.decode_keys(data, 3, offset=4)


def test_decode_keys_rejects_negative_range():
    codec = KeyCodec(8)
    with pytest.raises(TruncatedRecordError, match="invalid key range"):
        codec.decode_keys(b"", -1)
    with pytest.raises(TruncatedRecordError, match="invalid key range"):
        codec.decode_keys(b"", 0, offset=-8)


def test_tuple_roundtrip_and_torn_buffers():
    record = encode_tuple(42, _tuple())
    assert len(record) == tuple_record_size(2, 3)
    tid, decoded = decode_tuple(record)
    assert tid == 42
    assert len(decoded.constraints) == 3

    # shorter than the 6-byte header
    with pytest.raises(TruncatedRecordError, match="shorter than its header"):
        decode_tuple(record[:5])
    # header intact but body torn — every prefix length must raise
    for cut in range(6, len(record)):
        with pytest.raises(TruncatedRecordError, match="header promises"):
            decode_tuple(record[:cut])


def test_unknown_theta_is_bit_rot_not_tearing():
    record = bytearray(encode_tuple(7, _tuple()))
    record[-1] = 0xEE  # last byte is the final atom's theta code
    with pytest.raises(StorageError, match="unknown theta") as exc:
        decode_tuple(bytes(record))
    assert not isinstance(exc.value, TruncatedRecordError)


class _BandHeap:
    """A heap stand-in whose fetch returns fixed records."""

    def __init__(self, records):
        self.records = records

    def fetch_batch(self, rids):
        return {rid: self.records[rid] for rid in rids}


def _torn_bands():
    good = encode_tuple(1, _tuple())
    rotted = bytearray(encode_tuple(2, _tuple()))
    rotted[-1] = 0xEE
    yield TruncatedRecordError, [good, good[:5]]
    yield TruncatedRecordError, [good, good[: len(good) - 3], good]
    yield StorageError, [good, bytes(rotted)]
    # The first fault in record order decides the class.
    yield StorageError, [good, bytes(rotted), good[:5]]
    yield StorageError, [bytes(rotted), good[: len(good) - 3]]
    yield TruncatedRecordError, [good[: len(good) - 3], bytes(rotted)]


@pytest.mark.parametrize("error, records", list(_torn_bands()))
def test_batch_decode_raises_what_decode_tuple_raises(error, records):
    from repro.storage.serialize import decode_halfplanes_2d

    with pytest.raises(error) as batch:
        decode_halfplanes_2d(records)
    with pytest.raises(error) as scalar:
        for record in records:
            decode_tuple(record)
    assert type(batch.value) is type(scalar.value)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("error, records", list(_torn_bands()))
def test_refinement_band_raises_the_scalar_error_class(error, records):
    """A torn or rotted record in a refinement band surfaces as the same
    typed error through the columnar kernel as through decode_tuple."""
    from repro.core.planner import refine_candidates
    from repro.core.query import HalfPlaneQuery
    from tests.conftest import scalar_refine

    heap = _BandHeap(dict(enumerate(records)))
    query = HalfPlaneQuery("EXIST", 0.5, 1.0, ">=")
    with pytest.raises(error) as kernel:
        refine_candidates(heap, query, range(len(records)))
    with pytest.raises(error) as scalar:
        scalar_refine(heap, query, range(len(records)))
    assert type(kernel.value) is type(scalar.value)
