"""A slotted-page heap file for generalized-tuple records.

Records are addressed by RIDs — ``(page_id, slot)`` packed into a 4-byte
integer so index entries stay at the paper's 4-byte value size. The page
layout is the classic slot directory::

    [u16 slot_count | u16 free_offset | slots…]          (from the front)
    [… record bytes …]                                   (from the back)

Each slot is ``u16 offset | u16 length``; a zero length marks a deleted
slot. Fetching a record by RID costs exactly one logical page read —
this is the refinement-step cost the benchmarks charge per candidate.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

import numpy as np

from repro.errors import PageOverflowError, StorageError
from repro.obs import trace as obs
from repro.storage.pager import Pager

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")

#: Slot index width inside the packed RID (low bits).
_SLOT_BITS = 8
_SLOT_MASK = (1 << _SLOT_BITS) - 1


def pack_rid(page_id: int, slot: int) -> int:
    """Pack (page, slot) into one 32-bit RID."""
    if slot > _SLOT_MASK:
        raise StorageError(f"slot {slot} exceeds RID layout")
    rid = (page_id << _SLOT_BITS) | slot
    if rid >= 1 << 32:
        raise StorageError("RID exceeds 32 bits")
    return rid


def unpack_rid(rid: int) -> tuple[int, int]:
    """Inverse of :func:`pack_rid`."""
    return rid >> _SLOT_BITS, rid & _SLOT_MASK


def rid_pages(rids) -> np.ndarray:
    """Distinct heap page ids of an array of packed RIDs (vectorized
    ``unpack_rid(...)[0]`` + dedup, used by the columnar batch path)."""
    return np.unique(np.asarray(rids, dtype=np.int64) >> _SLOT_BITS)


class HeapFile:
    """Append-mostly record store; a deleted slot is never reused."""

    def __init__(self, pager: Pager) -> None:
        self.pager = pager
        self._pages: list[int] = []  # pages owned by this heap, append order
        self._open_page: int | None = None

    # ------------------------------------------------------------------
    # snapshot state (checkpoint/restore)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """The heap's non-page state (record bytes live in the pager)."""
        return {"pages": list(self._pages), "open_page": self._open_page}

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_payload`."""
        self._pages = list(payload["pages"])
        self._open_page = payload["open_page"]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> int:
        """Store a record; returns its RID."""
        max_payload = self.pager.page_size - _HEADER.size - _SLOT.size
        if len(record) > max_payload:
            raise PageOverflowError(
                f"record of {len(record)} bytes exceeds page payload "
                f"{max_payload}"
            )
        if self._open_page is not None:
            rid = self._try_insert(self._open_page, record)
            if rid is not None:
                return rid
        page_id = self.pager.allocate()
        image = bytearray(self.pager.page_size)
        _HEADER.pack_into(image, 0, 0, self.pager.page_size)
        self.pager.write(page_id, bytes(image))
        self._pages.append(page_id)
        self._open_page = page_id
        rid = self._try_insert(page_id, record)
        assert rid is not None  # fresh page always fits (size checked above)
        return rid

    def delete(self, rid: int) -> None:
        """Mark a record slot deleted (space is not compacted)."""
        page_id, slot = unpack_rid(rid)
        image = bytearray(self.pager.read(page_id))
        count, free = _HEADER.unpack_from(image, 0)
        if slot >= count:
            raise StorageError(f"RID {rid}: slot {slot} out of range")
        offset, length = _SLOT.unpack_from(image, _HEADER.size + slot * _SLOT.size)
        if length == 0:
            raise StorageError(f"RID {rid}: record already deleted")
        _SLOT.pack_into(image, _HEADER.size + slot * _SLOT.size, offset, 0)
        self.pager.write(page_id, bytes(image))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def fetch(self, rid: int) -> bytes:
        """Record bytes by RID (one logical page read)."""
        obs.incr("heap.record_fetches")
        page_id, slot = unpack_rid(rid)
        image = self.pager.read(page_id)
        count, _free = _HEADER.unpack_from(image, 0)
        if slot >= count:
            raise StorageError(f"RID {rid}: slot {slot} out of range")
        offset, length = _SLOT.unpack_from(image, _HEADER.size + slot * _SLOT.size)
        if length == 0:
            raise StorageError(f"RID {rid}: record deleted")
        return image[offset : offset + length]

    def fetch_batch(self, rids: Iterable[int]) -> dict[int, bytes]:
        """Fetch many records, reading each distinct page once.

        This is how a refinement step pays for its candidates: candidates
        are grouped by page, so the I/O cost is the number of distinct
        pages touched, not the number of records.
        """
        by_page: dict[int, list[int]] = {}
        for rid in rids:
            page_id, _slot = unpack_rid(rid)
            by_page.setdefault(page_id, []).append(rid)
        obs.incr("heap.pages_fetched", len(by_page))
        obs.incr("heap.record_fetches", sum(len(v) for v in by_page.values()))
        result: dict[int, bytes] = {}
        for page_id in sorted(by_page):
            image = self.pager.read(page_id)
            count, _free = _HEADER.unpack_from(image, 0)
            for rid in by_page[page_id]:
                _page, slot = unpack_rid(rid)
                if slot >= count:
                    raise StorageError(f"RID {rid}: slot {slot} out of range")
                offset, length = _SLOT.unpack_from(
                    image, _HEADER.size + slot * _SLOT.size
                )
                if length == 0:
                    raise StorageError(f"RID {rid}: record deleted")
                result[rid] = image[offset : offset + length]
        return result

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records as ``(rid, bytes)`` in page order."""
        for page_id in self._pages:
            image = self.pager.read(page_id)
            count, _free = _HEADER.unpack_from(image, 0)
            for slot in range(count):
                offset, length = _SLOT.unpack_from(
                    image, _HEADER.size + slot * _SLOT.size
                )
                if length:
                    yield pack_rid(page_id, slot), image[offset : offset + length]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Pages owned by this heap."""
        return len(self._pages)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _try_insert(self, page_id: int, record: bytes) -> int | None:
        image = bytearray(self.pager.read(page_id))
        count, free = _HEADER.unpack_from(image, 0)
        slot_table_end = _HEADER.size + (count + 1) * _SLOT.size
        if count + 1 > _SLOT_MASK + 1:
            return None
        if free - len(record) < slot_table_end:
            return None
        offset = free - len(record)
        image[offset:free] = record
        _SLOT.pack_into(image, _HEADER.size + count * _SLOT.size, offset, len(record))
        _HEADER.pack_into(image, 0, count + 1, offset)
        self.pager.write(page_id, bytes(image))
        return pack_rid(page_id, count)
