"""The per-tuple summary file: fixed-width float records beside the heap.

One record per heap record, each ``width`` values at the key codec's
width (``float32`` for 4-byte keys, ``float64`` for 8-byte keys), packed
``page_size // record_size`` to a page with no header. A record is
located from its heap record's RID with arithmetic only::

    summary slot = base[heap page] + heap slot
    summary page = pages[slot // per_page],  row = slot % per_page

``base`` is a dense per-heap-page table. It works because the heap
fills one open page at a time, slot by slot, and never returns to a
page it has left: the records of one heap page take consecutive summary
slots, and a new heap page starts where the previous one ended. Slots
that were never written (a heap page whose first records predate the
summary file) read as NaN, so a reader can always tell a missing record
from a present one. ``docs/STORAGE.md`` documents the layout.

The same slots address an in-memory tid column (the tuple id per slot,
-1 when deleted or never written): the index's one RID -> tuple-id
translation, rebuilt from the catalog on restore, never persisted.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.heap import _SLOT_BITS, _SLOT_MASK
from repro.storage.pager import Pager


class SummaryFile:
    """Fixed-width per-record summaries addressed by heap RID."""

    def __init__(self, pager: Pager, width: int, key_bytes: int = 4) -> None:
        self.pager = pager
        self.width = width
        self.dtype = np.dtype("<f4" if key_bytes == 4 else "<f8")
        self.record_size = width * self.dtype.itemsize
        self.per_page = pager.page_size // self.record_size
        if self.per_page < 1:
            raise StorageError(
                f"summary record of {self.record_size} bytes exceeds a page"
            )
        self._pages: list[int] = []
        #: First summary slot of each heap page (indexed by page id; -1
        #: for a heap page that has none).
        self._base = np.full(0, -1, dtype=np.int64)
        self._next = 0
        #: Tuple id per summary slot (-1: deleted or never written).
        self._tids = np.full(0, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # snapshot state (checkpoint/restore)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """The file's non-page state (records live in the pager)."""
        heap_pages = np.flatnonzero(self._base >= 0)
        return {
            "pages": list(self._pages),
            "base": [[int(p), int(self._base[p])] for p in heap_pages],
            "next": self._next,
        }

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_payload`. The tid column starts empty;
        :meth:`set_tids` fills it from the caller's catalog."""
        self._pages = list(payload["pages"])
        self._base = np.full(0, -1, dtype=np.int64)
        for heap_page, base in payload["base"]:
            self._set_base(heap_page, base)
        self._next = payload["next"]
        self._tids = np.full(0, -1, dtype=np.int64)

    @property
    def page_count(self) -> int:
        """Pages owned by the summary file."""
        return len(self._pages)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, rids, rows, tids) -> None:
        """Store the summaries and tids of freshly inserted records.

        ``rids`` must come in the heap's insertion order; ``rows`` is a
        ``(len(rids), width)`` array and ``tids`` the records' tuple
        ids. Each touched summary page is written once.
        """
        rids = np.asarray(rids, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, self.width)
        if not rids.size:
            return
        pages = rids >> _SLOT_BITS
        slots = np.empty(rids.size, dtype=np.int64)
        first = self._next
        # One run per heap page: a page first seen starts where the
        # previous one ended.
        starts = np.flatnonzero(np.diff(pages, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [rids.size]):
            page = int(pages[lo])
            if page >= self._base.size or self._base[page] < 0:
                self._set_base(page, self._next)
            slots[lo:hi] = self._base[page] + (rids[lo:hi] & _SLOT_MASK)
            self._next = int(slots[hi - 1]) + 1
        if slots[0] < first or (np.diff(slots) <= 0).any():
            raise StorageError(
                "summary slots reused: the summary file is out of step "
                "with the heap"
            )
        self._store(slots, rows)
        self.set_tids(rids, tids)

    def clear(self, rid: int) -> None:
        """Overwrite a deleted record's summary with NaN and its tid
        with -1 (heap slots are never reused)."""
        slots = self._slots(np.asarray([rid], dtype=np.int64))
        self._store(slots, np.full((1, self.width), np.nan))
        self._tids[slots] = -1

    def set_tids(self, rids, tids) -> None:
        """Point the tid column at ``tids`` for the stored ``rids``."""
        slots = self._slots(np.asarray(rids, dtype=np.int64))
        if slots.size:
            self._tids = _covering(self._tids, int(slots.max()))
            self._tids[slots] = tids

    def _set_base(self, heap_page: int, base: int) -> None:
        self._base = _covering(self._base, heap_page)
        self._base[heap_page] = base

    def _store(self, slots: np.ndarray, rows: np.ndarray) -> None:
        page_of = slots // self.per_page
        with np.errstate(over="ignore"):
            values = rows.astype(self.dtype)
        for page in np.unique(page_of).tolist():
            if page < len(self._pages):
                image = self._decode(self.pager.read(self._pages[page])).copy()
            else:
                # Pages skipped on the way hold only never-written slots.
                while len(self._pages) < page:
                    self._pages.append(self.pager.allocate())
                    self._put(self._pages[-1], self._blank())
                self._pages.append(self.pager.allocate())
                image = self._blank()
            mine = page_of == page
            image[slots[mine] % self.per_page] = values[mine]
            self._put(self._pages[page], image)

    def _blank(self) -> np.ndarray:
        return np.full((self.per_page, self.width), np.nan, self.dtype)

    def _put(self, pid: int, image: np.ndarray) -> None:
        data = bytearray(self.pager.page_size)
        data[: image.nbytes] = image.tobytes()
        self.pager.write(pid, bytes(data))

    def _decode(self, data: bytes) -> np.ndarray:
        return np.frombuffer(
            data, dtype=self.dtype, count=self.per_page * self.width
        ).reshape(self.per_page, self.width)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _slots(self, rids: np.ndarray) -> np.ndarray:
        """Summary slots of RIDs of records the file holds (no checks)."""
        return self._base[rids >> _SLOT_BITS] + (rids & _SLOT_MASK)

    def tids_of(self, rids: np.ndarray) -> np.ndarray:
        """Tuple ids of live records' int64 RIDs: one gather."""
        return self._tids[self._slots(rids)]

    def live_tids(self) -> int:
        """Number of live entries of the tid column."""
        return int(np.count_nonzero(self._tids >= 0))

    def slots_for(self, rids: np.ndarray) -> np.ndarray:
        """Summary slots of packed RIDs (-1 where a record has none)."""
        pages = rids >> _SLOT_BITS
        known = pages < self._base.size
        base = np.full(rids.size, -1, dtype=np.int64)
        base[known] = self._base[pages[known]]
        slots = base + (rids & _SLOT_MASK)
        slots[(base < 0) | (slots >= len(self._pages) * self.per_page)] = -1
        return slots

    def read(self, rids) -> tuple[np.ndarray, int]:
        """The summaries of ``rids`` as a float64 ``(len(rids), width)``
        array (NaN rows for records without one) and the number of
        summary pages read — one logical read per distinct page."""
        rids = np.asarray(rids, dtype=np.int64)
        slots = self.slots_for(rids)
        rows = np.full((rids.size, self.width), np.nan)
        present = slots >= 0
        if not present.any():
            return rows, 0
        page_of = slots[present] // self.per_page
        pages, position = np.unique(page_of, return_inverse=True)
        block = np.empty((pages.size, self.per_page, self.width), self.dtype)
        for n, page in enumerate(pages.tolist()):
            block[n] = self._decode(self.pager.read(self._pages[page]))
        rows[present] = block[position, slots[present] % self.per_page]
        return rows, int(pages.size)


def _covering(table: np.ndarray, position: int) -> np.ndarray:
    """``table``, or a copy grown (doubling, -1 filled) to hold
    ``position``."""
    if position < table.size:
        return table
    grown = np.full(max(position + 1, 2 * table.size), -1, dtype=np.int64)
    grown[: table.size] = table
    return grown
