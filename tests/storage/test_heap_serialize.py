"""Heap file and record codec tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import GeneralizedTuple, LinearConstraint, Theta, parse_tuple
from repro.errors import PageOverflowError, StorageError
from repro.storage import (
    HeapFile,
    KeyCodec,
    Pager,
    decode_tuple,
    encode_tuple,
    pack_rid,
    tuple_record_size,
    unpack_rid,
)
from repro.storage.serialize import decode_halfplanes_2d
from tests.conftest import random_bounded_tuple


class TestKeyCodec:
    def test_f64_lossless(self):
        codec = KeyCodec(8)
        for v in (0.0, -1.5, 3.141592653589793, 1e300, float("inf")):
            assert codec.decode(codec.encode(v)) == v

    def test_f32_quantizes(self):
        codec = KeyCodec(4)
        v = 1.000000123456789
        q = codec.quantize(v)
        assert q != v
        assert abs(q - v) < 1e-6

    def test_down_up_bracket_value(self):
        codec = KeyCodec(4)
        rng = random.Random(1)
        for _ in range(300):
            v = rng.uniform(-1e6, 1e6)
            assert codec.down(v) <= v <= codec.up(v)
            # down/up are representable values
            assert codec.quantize(codec.down(v)) == codec.down(v)
            assert codec.quantize(codec.up(v)) == codec.up(v)

    def test_infinities_pass_through(self):
        codec = KeyCodec(4)
        assert codec.quantize(float("inf")) == float("inf")
        assert codec.down(float("-inf")) == float("-inf")

    def test_f32_saturates_large(self):
        codec = KeyCodec(4)
        assert codec.quantize(1e39) == float("inf")
        assert codec.quantize(-1e39) == float("-inf")

    def test_bad_width_rejected(self):
        with pytest.raises(StorageError):
            KeyCodec(3)


class TestRID:
    def test_roundtrip(self):
        rid = pack_rid(1234, 56)
        assert unpack_rid(rid) == (1234, 56)

    def test_slot_limit(self):
        with pytest.raises(StorageError):
            pack_rid(1, 300)


class TestTupleRecords:
    def test_roundtrip_exact(self):
        t = parse_tuple("y >= 0.123456789x - 7.75 and x <= 50.5")
        tid, back = decode_tuple(encode_tuple(42, t))
        assert tid == 42
        assert back == t  # float64 coefficients: lossless

    def test_record_size_formula(self):
        t = parse_tuple("x <= 2 and y >= 3")
        data = encode_tuple(0, t)
        assert len(data) == tuple_record_size(2, len(t.constraints))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100000), tid=st.integers(0, 2**32 - 1))
    def test_roundtrip_random(self, seed, tid):
        t = random_bounded_tuple(random.Random(seed))
        got_tid, back = decode_tuple(encode_tuple(tid, t))
        assert got_tid == tid
        assert back == t

    @pytest.mark.parametrize("atoms", [
        [LinearConstraint((1.0, 0.0), -1.0, Theta.LE),
         LinearConstraint((0.0, 0.0), 1.0, Theta.LE)],
        [LinearConstraint((0.0, 0.0), 1.0, Theta.LE)],
    ], ids=["with-satisfiable-atom", "false-atom-only"])
    def test_syntactically_false_roundtrip(self, atoms):
        """A contradictory atom that normalisation dropped still reaches
        the record, so the tuple decodes as unsatisfiable, and the batch
        decoder leaves its row all padding (never decided)."""
        t = GeneralizedTuple(atoms)
        assert t.syntactically_false
        data = encode_tuple(7, t)
        tid, back = decode_tuple(data)
        assert tid == 7
        assert back.syntactically_false
        assert back == t
        rows = decode_halfplanes_2d([data])
        assert rows.tids.tolist() == [7]
        for column in (rows.nx, rows.ny, rows.beta):
            assert not column.any()


class TestHeapFile:
    def test_insert_fetch(self):
        heap = HeapFile(Pager())
        rid = heap.insert(b"hello world")
        assert heap.fetch(rid) == b"hello world"

    def test_many_records_span_pages(self):
        heap = HeapFile(Pager(page_size=256))
        rids = [heap.insert(bytes([i % 251]) * 40) for i in range(50)]
        assert heap.page_count > 1
        for i, rid in enumerate(rids):
            assert heap.fetch(rid) == bytes([i % 251]) * 40

    def test_delete(self):
        heap = HeapFile(Pager())
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.fetch(rid)
        with pytest.raises(StorageError):
            heap.delete(rid)

    def test_scan_skips_deleted(self):
        heap = HeapFile(Pager())
        keep = heap.insert(b"keep")
        drop = heap.insert(b"drop")
        heap.delete(drop)
        assert [(rid, data) for rid, data in heap.scan()] == [(keep, b"keep")]

    def test_oversized_record_rejected(self):
        heap = HeapFile(Pager(page_size=128))
        with pytest.raises(PageOverflowError):
            heap.insert(bytes(500))

    def test_fetch_costs_one_page_read(self):
        pager = Pager()
        heap = HeapFile(pager)
        rid = heap.insert(b"x" * 10)
        with pager.measure() as scope:
            heap.fetch(rid)
        assert scope.delta.logical_reads == 1

    def test_fetch_batch_deduplicates_pages(self):
        pager = Pager()
        heap = HeapFile(pager)
        rids = [heap.insert(b"r" * 20) for _ in range(30)]
        assert heap.page_count == 1
        with pager.measure() as scope:
            records = heap.fetch_batch(rids)
        assert scope.delta.logical_reads == 1
        assert len(records) == 30

    def test_fetch_batch_deleted_raises(self):
        heap = HeapFile(Pager())
        rid = heap.insert(b"z")
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.fetch_batch([rid])
