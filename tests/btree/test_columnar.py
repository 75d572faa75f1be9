"""Columnar node codecs and the vectorized descent/sweep read path.

Array (de)serialization round-trips must carry exactly what the list
decoders carry, and ``np.searchsorted`` descent plus merged sweeps must
agree with a scalar reference model — the sorted inserted ``(key, rid)``
list, bisected entry by entry in plain Python — on the degenerate
shapes where off-by-ones live: empty trees, a single leaf, long
duplicate-key runs, and start keys that hit stored keys exactly. Page
counts are checked against a walk of the per-leaf ``sweep_up`` /
``sweep_down`` iterators.
"""

import bisect

import numpy as np
import pytest

from repro.btree import BPlusTree
from repro.btree import columnar as columnar_mod
from repro.btree.columnar import ColumnarCache
from repro.btree.node import LeafNode, InternalNode, NodeLayout
from repro.storage import KeyCodec, Pager


def make_layout(key_bytes=8, aux_slots=0, page_size=256):
    return NodeLayout(page_size, KeyCodec(key_bytes), aux_slots)


def make_tree(entries, key_bytes=8, page_size=256):
    """A tree loaded by inserting ``entries`` one at a time."""
    tree = BPlusTree(Pager(page_size=page_size), KeyCodec(key_bytes))
    for key, rid in entries:
        tree.insert(key, rid)
    return tree


def scalar_search(entries, key):
    """Reference ``search``: rids under exactly ``key``, in rid order."""
    return [rid for k, rid in sorted(entries) if k == key]


def scalar_multi_sweep(entries, starts, upward):
    """Reference merged sweep: ``(keys, rids, offsets)`` in sweep order.

    Up-sweeps collect every entry ``>= min(starts)`` ascending, and the
    i-th start's suffix begins at its first key ``>= starts[i]``;
    down-sweeps mirror that with descending keys ``<= max(starts)``.
    """
    ordered = sorted(entries)
    if not ordered or not starts:
        return [], [], [0] * len(starts)
    if upward:
        lo = min(starts)
        kept = [(k, r) for k, r in ordered if k >= lo]
        keys = [k for k, _ in kept]
        offsets = [bisect.bisect_left(keys, q) for q in starts]
    else:
        hi = max(starts)
        kept = [(k, r) for k, r in reversed(ordered) if k <= hi]
        keys = [k for k, _ in kept]
        negated = [-k for k in keys]
        offsets = [bisect.bisect_left(negated, -q) for q in starts]
    return keys, [r for _, r in kept], offsets


class TestArrayRoundTrips:
    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_leaf_arrays_match_scalar_decode(self, key_bytes):
        layout = make_layout(key_bytes=key_bytes, aux_slots=2)
        node = LeafNode(
            keys=[-3.25, -3.25, 0.0, 1.5, 7.75],
            rids=[5, 9, 1, 0, 4_000_000_000],
            prev=12, next=13,
            aux=[1.5, -2.25],
        )
        data = layout.encode_leaf(node)
        scalar = layout.decode_leaf(data)
        arrays = layout.decode_leaf_arrays(data)
        assert arrays.keys.tolist() == scalar.keys
        assert arrays.rids.tolist() == scalar.rids
        assert (arrays.prev, arrays.next) == (scalar.prev, scalar.next)
        assert arrays.keys.dtype == np.float64
        assert arrays.rids.dtype == np.int64

    def test_leaf_arrays_empty(self):
        layout = make_layout()
        data = layout.encode_leaf(LeafNode())
        arrays = layout.decode_leaf_arrays(data)
        assert arrays.keys.size == 0
        assert arrays.rids.size == 0

    def test_leaf_arrays_read_only(self):
        layout = make_layout()
        data = layout.encode_leaf(LeafNode(keys=[1.0], rids=[2]))
        arrays = layout.decode_leaf_arrays(data)
        with pytest.raises(ValueError):
            arrays.keys[0] = 9.0
        with pytest.raises(ValueError):
            arrays.rids[0] = 9

    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_internal_arrays_match_scalar_decode(self, key_bytes):
        layout = make_layout(key_bytes=key_bytes)
        node = InternalNode(
            seps=[(-1.0, 3), (2.5, 0), (2.5, 7)],
            children=[10, 11, 12, 13],
        )
        data = layout.encode_internal(node)
        scalar = layout.decode_internal(data)
        arrays = layout.decode_internal_arrays(data)
        assert list(zip(arrays.keys.tolist(), arrays.rids.tolist())) == scalar.seps
        assert arrays.children.tolist() == scalar.children
        assert len(arrays.children) == len(arrays.keys) + 1

    def test_internal_arrays_sentinel_rid_widens(self):
        # 0xFFFFFFFF on page must survive as a positive int64, not wrap.
        layout = make_layout()
        node = InternalNode(seps=[(0.0, 0xFFFFFFFF)], children=[1, 2])
        data = layout.encode_internal(node)
        arrays = layout.decode_internal_arrays(data)
        assert arrays.rids[0] == 0xFFFFFFFF

    def test_quantized_keys_identical_across_decoders(self):
        # 4-byte keys quantize; both decoders must widen the *same* f32.
        layout = make_layout(key_bytes=4)
        keys = [0.1, 1e-40, 3.14159265358979, -2.0 / 3.0]
        data = layout.encode_leaf(LeafNode(keys=keys, rids=[0, 1, 2, 3]))
        assert layout.decode_leaf_arrays(data).keys.tolist() == \
            layout.decode_leaf(data).keys


class TestColumnarCache:
    def test_decode_once_then_hit(self):
        layout = make_layout()
        cache = ColumnarCache(layout)
        data = layout.encode_leaf(LeafNode(keys=[1.0], rids=[2]))
        first = cache.leaf(7, data)
        assert cache.leaf(7, data) is first
        cache.invalidate(7)
        assert cache.leaf(7, data) is not first

    def test_capacity_evicts_without_changing_answers(self, monkeypatch):
        layout = make_layout()
        monkeypatch.setattr(columnar_mod, "CACHE_CAPACITY", 2)
        cache = ColumnarCache(layout)
        images = {
            pid: layout.encode_leaf(LeafNode(keys=[float(pid)], rids=[pid]))
            for pid in range(5)
        }
        for pid, data in images.items():
            cache.leaf(pid, data)
        assert len(cache) <= 2
        for pid, data in images.items():
            assert cache.leaf(pid, data).keys.tolist() == [float(pid)]


#: Degenerate entry sets the descent/sweep comparison runs over.
DEGENERATE_CASES = {
    "empty": [],
    "single-leaf": [(2.0, 0), (4.0, 1), (4.5, 2)],
    "duplicate-keys": [(1.0, rid) for rid in range(120)]
    + [(2.0, rid) for rid in range(120, 150)],
    "deep-mixed": [((i * 7) % 50 / 3.0, i) for i in range(300)],
}


def starts_for(entries):
    """Probe keys: every stored key (boundary-exact), midpoints, and
    out-of-range sentinels on both sides."""
    keys = sorted({k for k, _ in entries})
    starts = list(keys)
    starts += [(a + b) / 2.0 for a, b in zip(keys, keys[1:])]
    starts += [-1e9, 1e9, 0.0]
    return starts


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
class TestDescentParity:
    def test_search_matches_scalar(self, case):
        entries = DEGENERATE_CASES[case]
        tree = make_tree(entries)
        for key in starts_for(entries):
            assert tree.search(key) == scalar_search(entries, key), key
        tree.check_invariants()

    def test_multi_sweeps_match_scalar(self, case):
        entries = DEGENERATE_CASES[case]
        tree = make_tree(entries)
        starts = starts_for(entries)
        for method, upward in (("sweep_up_multi", True),
                               ("sweep_down_multi", False)):
            got = getattr(tree, method)(starts)
            keys, rids, offsets = scalar_multi_sweep(entries, starts, upward)
            assert got.keys.tolist() == keys, method
            assert got.rids.tolist() == rids, method
            assert list(got.offsets) == offsets, method
            for i, at in enumerate(offsets):
                assert got.entries_for(i) == (keys[at:], rids[at:])

    def test_page_accounting_bit_identical(self, case):
        # One merged sweep costs exactly one descent plus the leaf walk
        # that sweep_up/sweep_down from its widest start performs — for
        # the whole probe set and for every probe on its own.
        entries = DEGENERATE_CASES[case]
        tree = make_tree(entries)
        starts = starts_for(entries)
        stats = tree.pager.stats
        for group in [starts] + [[s] for s in starts]:
            for method, walk, widest in (
                ("sweep_up_multi", tree.sweep_up, min(group)),
                ("sweep_down_multi", tree.sweep_down, max(group)),
            ):
                before = stats.logical_reads
                leaves = sum(1 for _ in walk(widest))
                walk_pages = stats.logical_reads - before
                before = stats.logical_reads
                got = getattr(tree, method)(group)
                assert stats.logical_reads - before == walk_pages, method
                assert got.leaves == leaves, method


class TestWriteInvalidation:
    def test_insert_after_read_is_visible(self):
        # A cached decoded page must never mask a subsequent write.
        tree = make_tree([(float(i), i) for i in range(50)])
        assert tree.search(25.0) == [25]
        tree.insert(25.0, 999)
        assert sorted(tree.search(25.0)) == [25, 999]
        tree.delete(25.0, 25)
        assert tree.search(25.0) == [999]
        tree.check_invariants()
