"""On-page B+-tree node layouts.

Every node lives in exactly one page of the simulated disk. Entries are
``(key, rid)`` pairs — the tree orders by the *composite* ``(key, rid)``
so duplicate keys (many tuples sharing a ``TOP``/``BOT`` value) keep a
total order and deletes stay unambiguous.

Leaf layout::

    u8 kind=0 | u8 flags | u16 count | u32 prev | u32 next
    | aux_slots × key   (handicap values, Section 4.2/4.3)
    | count × (key, u32 rid)

Internal layout::

    u8 kind=1 | u8 flags | u16 count
    | (count+1) × u32 child
    | count × (key, u32 rid)       (composite separators)

``key`` is 4 or 8 bytes according to the tree's :class:`KeyCodec` —
4 bytes reproduces the paper's value size and fan-out.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError
from repro.storage.disk import NULL_PAGE
from repro.storage.serialize import KeyCodec

_LEAF_KIND = 0
_INTERNAL_KIND = 1
_HEADER = struct.Struct("<BBH")
_LINKS = struct.Struct("<II")
_RID = struct.Struct("<I")

#: Packed (key, rid) entry layouts — itemsize matches the on-page
#: ``key_bytes + 4`` stride exactly (no alignment padding).
_ENTRY_DTYPES = {
    4: np.dtype([("k", "<f4"), ("r", "<u4")]),
    8: np.dtype([("k", "<f8"), ("r", "<u4")]),
}

#: flags bit 0: leaf handicap aggregates are valid.
FLAG_HANDICAPS_VALID = 0x01


@dataclass
class LeafNode:
    """Decoded leaf node."""

    keys: list[float] = field(default_factory=list)
    rids: list[int] = field(default_factory=list)
    prev: int = NULL_PAGE
    next: int = NULL_PAGE
    aux: list[float] = field(default_factory=list)
    flags: int = 0

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def handicaps_valid(self) -> bool:
        return bool(self.flags & FLAG_HANDICAPS_VALID)

    def set_handicaps(self, values: list[float]) -> None:
        """Install handicap aggregates and mark them valid."""
        self.aux = list(values)
        self.flags |= FLAG_HANDICAPS_VALID

    def invalidate_handicaps(self) -> None:
        self.flags &= ~FLAG_HANDICAPS_VALID

    def entries(self) -> list[tuple[float, int]]:
        return list(zip(self.keys, self.rids))


@dataclass
class LeafArrays:
    """Columnar view of one leaf page (see ``docs/ARCHITECTURE.md``).

    ``keys`` is float64 ascending, ``rids`` int64 — the same values
    :class:`LeafNode` holds as Python lists, but as read-only numpy
    arrays so descent and sweeps can use ``np.searchsorted`` and slice
    instead of per-entry comparisons. ``aux`` holds the handicap slots
    the T2 sweeps read, as the same floats :class:`LeafNode` carries.
    Decoded once per page image and cached
    (:class:`repro.btree.columnar.ColumnarCache`); the page read itself
    is still counted per touch, so logical accounting is unchanged.
    """

    keys: np.ndarray
    rids: np.ndarray
    prev: int
    next: int
    aux: tuple[float, ...]


@dataclass
class InternalArrays:
    """Columnar view of one internal page: separator key/rid columns
    plus the child page-id array (``len(children) == len(keys) + 1``)."""

    keys: np.ndarray
    rids: np.ndarray
    children: np.ndarray


@dataclass
class InternalNode:
    """Decoded internal node.

    ``seps`` holds composite separators ``(key, rid)``; ``children`` has
    ``len(seps) + 1`` page ids. ``seps[i]`` is a copy of the smallest
    composite entry in ``children[i+1]``'s subtree.
    """

    seps: list[tuple[float, int]] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.seps)


class NodeLayout:
    """Capacity math and page codecs for one tree's configuration."""

    def __init__(self, page_size: int, key_codec: KeyCodec, aux_slots: int) -> None:
        self.page_size = page_size
        self.key_codec = key_codec
        self.aux_slots = aux_slots
        kb = key_codec.key_bytes
        leaf_fixed = _HEADER.size + _LINKS.size + aux_slots * kb
        self.leaf_capacity = (page_size - leaf_fixed) // (kb + _RID.size)
        internal_fixed = _HEADER.size + _RID.size  # header + first child
        self.internal_capacity = (page_size - internal_fixed) // (
            kb + 2 * _RID.size
        )
        if self.leaf_capacity < 4 or self.internal_capacity < 4:
            raise StorageError(
                f"page size {page_size} too small for B+-tree nodes"
            )
        self._leaf_fixed = leaf_fixed
        self._entry_dtype = _ENTRY_DTYPES[kb]

    def _encode_entries(
        self, out: bytearray, pos: int, keys, rids
    ) -> None:
        """Pack ``(key, rid)`` pairs into ``out`` at ``pos`` in one
        vectorized write (byte-identical to the per-entry codec)."""
        entries = np.empty(len(keys), dtype=self._entry_dtype)
        with np.errstate(over="ignore"):
            entries["k"] = self.key_codec.saturate_array(keys)
        entries["r"] = rids
        raw = entries.tobytes()
        out[pos : pos + len(raw)] = raw

    def _decode_entries(
        self, data: bytes, pos: int, count: int
    ) -> tuple[list[float], list[int]]:
        entries = np.frombuffer(data, dtype=self._entry_dtype,
                                count=count, offset=pos)
        keys = entries["k"].astype(np.float64).tolist()
        rids = entries["r"].tolist()
        return keys, rids

    # ------------------------------------------------------------------
    # leaf codec
    # ------------------------------------------------------------------
    def encode_leaf(self, node: LeafNode) -> bytes:
        if node.count > self.leaf_capacity:
            raise StorageError("leaf overflow at encode time")
        if len(node.aux) not in (0, self.aux_slots):
            raise StorageError(
                f"leaf has {len(node.aux)} aux values, layout expects "
                f"{self.aux_slots}"
            )
        out = bytearray(self.page_size)
        _HEADER.pack_into(out, 0, _LEAF_KIND, node.flags, node.count)
        _LINKS.pack_into(out, _HEADER.size, node.prev, node.next)
        pos = _HEADER.size + _LINKS.size
        kb = self.key_codec.key_bytes
        aux = node.aux if node.aux else [0.0] * self.aux_slots
        raw_aux = self.key_codec.encode_keys(aux)
        out[pos : pos + len(raw_aux)] = raw_aux
        pos += self.aux_slots * kb
        self._encode_entries(out, pos, node.keys, node.rids)
        return bytes(out)

    def decode_leaf(self, data: bytes) -> LeafNode:
        kind, flags, count = _HEADER.unpack_from(data, 0)
        if kind != _LEAF_KIND:
            raise StorageError("page is not a leaf node")
        prev, nxt = _LINKS.unpack_from(data, _HEADER.size)
        pos = _HEADER.size + _LINKS.size
        kb = self.key_codec.key_bytes
        aux = self.key_codec.decode_keys(data, self.aux_slots, pos)
        pos += self.aux_slots * kb
        keys, rids = self._decode_entries(data, pos, count)
        return LeafNode(keys, rids, prev, nxt, aux, flags)

    def decode_leaf_arrays(self, data: bytes) -> LeafArrays:
        """Decode a leaf page into read-only numpy columns.

        Carries exactly the information the read paths need: keys, rids,
        chain links and the aux (handicap) slots. Flags are a write-path
        concern and stay on :meth:`decode_leaf`. Keys and aux values are
        bit-identical to the scalar decoder's (same widening cast, no
        re-rounding).
        """
        kind, _flags, count = _HEADER.unpack_from(data, 0)
        if kind != _LEAF_KIND:
            raise StorageError("page is not a leaf node")
        prev, nxt = _LINKS.unpack_from(data, _HEADER.size)
        pos = _HEADER.size + _LINKS.size
        aux = tuple(self.key_codec.decode_keys(data, self.aux_slots, pos))
        pos += self.aux_slots * self.key_codec.key_bytes
        entries = np.frombuffer(data, dtype=self._entry_dtype,
                                count=count, offset=pos)
        keys = entries["k"].astype(np.float64)
        rids = entries["r"].astype(np.int64)
        keys.flags.writeable = False
        rids.flags.writeable = False
        return LeafArrays(keys, rids, prev, nxt, aux)

    def decode_internal_arrays(self, data: bytes) -> InternalArrays:
        """Decode an internal page into read-only numpy columns.

        ``rids`` widen to int64 so composite-descent targets with
        sentinel rids (-1, ``0xFFFFFFFF``) compare correctly.
        """
        kind, _flags, count = _HEADER.unpack_from(data, 0)
        if kind != _INTERNAL_KIND:
            raise StorageError("page is not an internal node")
        pos = _HEADER.size
        children = np.frombuffer(
            data, dtype="<u4", count=count + 1, offset=pos
        ).astype(np.int64)
        pos += (count + 1) * _RID.size
        entries = np.frombuffer(data, dtype=self._entry_dtype,
                                count=count, offset=pos)
        keys = entries["k"].astype(np.float64)
        rids = entries["r"].astype(np.int64)
        for arr in (keys, rids, children):
            arr.flags.writeable = False
        return InternalArrays(keys, rids, children)

    # ------------------------------------------------------------------
    # internal codec
    # ------------------------------------------------------------------
    def encode_internal(self, node: InternalNode) -> bytes:
        if node.count > self.internal_capacity:
            raise StorageError("internal overflow at encode time")
        if len(node.children) != node.count + 1:
            raise StorageError("internal node children/separator mismatch")
        out = bytearray(self.page_size)
        _HEADER.pack_into(out, 0, _INTERNAL_KIND, 0, node.count)
        pos = _HEADER.size
        raw_children = np.asarray(node.children, dtype="<u4").tobytes()
        out[pos : pos + len(raw_children)] = raw_children
        pos += len(node.children) * _RID.size
        if node.seps:
            keys, rids = zip(*node.seps)
            self._encode_entries(out, pos, list(keys), list(rids))
        return bytes(out)

    def decode_internal(self, data: bytes) -> InternalNode:
        kind, _flags, count = _HEADER.unpack_from(data, 0)
        if kind != _INTERNAL_KIND:
            raise StorageError("page is not an internal node")
        pos = _HEADER.size
        children = np.frombuffer(
            data, dtype="<u4", count=count + 1, offset=pos
        ).tolist()
        pos += (count + 1) * _RID.size
        keys, rids = self._decode_entries(data, pos, count)
        return InternalNode(list(zip(keys, rids)), children)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def page_kind(data: bytes) -> int:
        """0 for leaf pages, 1 for internal pages."""
        return data[0]
