"""A file-backed page store, drop-in compatible with ``DiskSimulator``.

``FileDisk`` keeps the simulator's exact accounting semantics — same
allocation order (LIFO free list), same error messages, one physical
read/write counted per ``read_page``/``write_page`` and none for
allocate/free — so every pinned page-count baseline holds unchanged
when the substrate becomes real files. Reads go through an mmap fast
path with a ``pread`` fallback; writes use ``pwrite`` on a raw fd, so
no write depends on a shared seek offset.

Two durability modes:

- ``"wal"`` — the page file is written **only at checkpoint**. Mutations
  append redo records to the WAL and park the page image in an
  in-memory overlay; :meth:`commit` fsyncs the WAL, :meth:`checkpoint`
  folds the overlay into the page file and resets the WAL. Crash
  recovery replays committed WAL batches on open.
- ``"none"`` — write-through ``pwrite`` with no WAL; the header and
  free list are persisted on :meth:`close`. This is the cheap mode the
  ``REPRO_DATA_DIR`` gate uses to run the whole test suite file-backed.

On-disk layout (full byte-level spec in ``docs/STORAGE.md``): two
64-byte ping-pong header slots at offsets 0 and 64 (the valid slot with
the higher generation wins), then page ``i`` at ``128 + i*page_size``.
The free stack lives in a generation-tagged ping-pong file
(``freelist.0``/``freelist.1``, slot = generation % 2) written *before*
the header flips, so the slot the surviving header reads is never
touched by a crashed checkpoint; on open it restores the exact LIFO pop
order the process would have had without the restart.
"""

from __future__ import annotations

import mmap
import os
import shutil
import struct
import tempfile
import weakref
import zlib

from repro.errors import (
    DoubleFreeError,
    FaultInjectedError,
    RecoveryError,
    StorageError,
)
from repro.storage.disk import DEFAULT_PAGE_SIZE, NULL_PAGE
from repro.storage.stats import IOStats
from repro.storage.wal import (
    REC_ALLOC,
    REC_FREE,
    REC_PAGE,
    WriteAheadLog,
)

PAGE_FILE = "pages.rpg"
WAL_FILE = "wal.rwl"
FREE_FILES = ("freelist.0", "freelist.1")

_MAGIC = b"RPGF"
_FREE_MAGIC = b"RFRE"
_VERSION = 1
#: magic, version, reserved, page_size, next_id, free_count,
#: generation, checkpoint_seq, reserved — 60 bytes, + u32 crc32 = 64.
_HEADER = struct.Struct("<4sHHIIIQQ24s")
#: free-list file header: magic, count, generation (then crc, then body).
_FREE_HEADER = struct.Struct("<4sIQ")
_SLOT_SIZE = 64
_PAGE0 = 2 * _SLOT_SIZE
_U32 = struct.Struct("<I")


class _Handles:
    """fd + mmap holder shared between ``close()`` and the ephemeral
    finalizer (so cleanup is idempotent whichever runs first)."""

    __slots__ = ("fd", "mm")

    def __init__(self) -> None:
        self.fd: int | None = None
        self.mm: mmap.mmap | None = None


def _release(handles: _Handles, wal: WriteAheadLog | None = None,
             rmdir: str | None = None) -> None:
    if handles.mm is not None:
        handles.mm.close()
        handles.mm = None
    if handles.fd is not None:
        os.close(handles.fd)
        handles.fd = None
    if wal is not None:
        wal.close()
    if rmdir is not None:
        shutil.rmtree(rmdir, ignore_errors=True)


class FileDisk:
    """Durable page store under ``data_dir`` (``pages.rpg`` +
    ``wal.rwl``), presenting the :class:`DiskSimulator` protocol."""

    def __init__(
        self,
        data_dir: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        durability: str = "wal",
        replay_upto: int | None = None,
    ) -> None:
        if page_size < 64:
            raise StorageError(f"page size {page_size} is unrealistically small")
        if durability not in ("wal", "none"):
            raise StorageError(f"unknown durability mode {durability!r}")
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.path = os.path.join(data_dir, PAGE_FILE)
        self.page_size = page_size
        self.durability = durability
        self.stats = IOStats()
        self._allocated: set[int] = set()
        self._free: list[int] = []
        self._next_id = 0
        self._overlay: dict[int, bytes] = {}
        self._generation = 0
        self.checkpoint_seq = 0
        #: Armed crash point: raise after N checkpoint page writes.
        self.fail_checkpoint_after: int | None = None
        self._h = _Handles()
        self._mapped = 0
        existing = (
            os.path.exists(self.path)
            and os.path.getsize(self.path) >= _SLOT_SIZE
        )
        self._h.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if existing:
            self._load_header()
        else:
            self._write_header()
        wal_path = os.path.join(data_dir, WAL_FILE)
        if durability == "wal":
            from repro.obs.metrics import get_registry

            self._c_ckpt_pages = get_registry().counter(
                "checkpoint_pages", "pages folded into the page file at "
                "checkpoint")
            self.wal = WriteAheadLog(wal_path, page_size)
            self._recover(replay_upto)
        else:
            if (
                os.path.exists(wal_path)
                and os.path.getsize(wal_path) > 16
            ):
                raise StorageError(
                    f"{data_dir} has a non-empty WAL; open it with "
                    "durability='wal' so committed records are not lost"
                )
            self.wal = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def ephemeral(
        cls, root: str, page_size: int = DEFAULT_PAGE_SIZE
    ) -> "FileDisk":
        """A throwaway ``durability="none"`` disk in a fresh temp dir
        under ``root``, deleted when the disk is garbage-collected.

        This is what ``REPRO_DATA_DIR`` hands to every default pager.
        """
        os.makedirs(root, exist_ok=True)
        path = tempfile.mkdtemp(prefix="pager-", dir=root)
        disk = cls(path, page_size=page_size, durability="none")
        disk._finalizer = weakref.finalize(
            disk, _release, disk._h, None, path)
        return disk

    # ------------------------------------------------------------------
    # header + free chain
    # ------------------------------------------------------------------
    def _pack_header(self) -> bytes:
        body = _HEADER.pack(
            _MAGIC, _VERSION, 0, self.page_size, self._next_id,
            len(self._free), self._generation,
            self.checkpoint_seq, b"\0" * 24,
        )
        return body + _U32.pack(zlib.crc32(body))

    def _write_header(self, fsync: bool = False) -> None:
        slot = self._generation % 2
        os.pwrite(self._h.fd, self._pack_header(), slot * _SLOT_SIZE)
        if fsync:
            os.fsync(self._h.fd)

    def _load_header(self) -> None:
        best = None
        for slot in (0, 1):
            raw = os.pread(self._h.fd, _SLOT_SIZE, slot * _SLOT_SIZE)
            if len(raw) < _SLOT_SIZE:
                continue
            body, (crc,) = raw[:60], _U32.unpack(raw[60:])
            if zlib.crc32(body) != crc:
                continue
            magic, version, _, psize, next_id, free_count, \
                generation, ckpt_seq, _pad = _HEADER.unpack(body)
            if magic != _MAGIC or version != _VERSION:
                continue
            if best is None or generation > best[0]:
                best = (generation, psize, next_id, free_count, ckpt_seq)
        if best is None:
            raise RecoveryError(f"{self.path}: no valid header slot")
        generation, psize, next_id, free_count, ckpt_seq = best
        if psize != self.page_size:
            raise StorageError(
                f"{self.path}: page size {psize} != requested "
                f"{self.page_size}")
        self._generation = generation
        self._next_id = next_id
        self.checkpoint_seq = ckpt_seq
        self._free = self._read_free_list(generation, free_count)
        self._allocated = set(range(next_id)) - set(self._free)

    def _free_path(self, generation: int) -> str:
        return os.path.join(self.data_dir, FREE_FILES[generation % 2])

    def _write_free_list(self, generation: int) -> None:
        """Durably write the free stack (bottom first) to the slot file
        of ``generation``'s parity. Ping-pong like the header: the slot
        the *current* generation reads stays intact until the header
        flips, so a crash mid-checkpoint never corrupts it."""
        body = struct.pack(f"<{len(self._free)}I", *self._free)
        head = _FREE_HEADER.pack(_FREE_MAGIC, len(self._free), generation)
        blob = head + _U32.pack(zlib.crc32(head + body)) + body
        fd = os.open(self._free_path(generation),
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, blob, 0)
            os.fsync(fd)
        finally:
            os.close(fd)

    def _read_free_list(self, generation: int, count: int) -> list[int]:
        """Inverse of :meth:`_write_free_list` for the given generation."""
        path = self._free_path(generation)
        if not os.path.exists(path):
            if count == 0:
                return []
            raise RecoveryError(
                f"{self.path}: header expects {count} free pages but "
                f"{path} is missing")
        with open(path, "rb") as fh:
            raw = fh.read()
        head_size = _FREE_HEADER.size + 4
        if len(raw) < head_size:
            raise RecoveryError(f"{path}: short free-list header")
        magic, stored_count, stored_gen = _FREE_HEADER.unpack(
            raw[:_FREE_HEADER.size])
        (crc,) = _U32.unpack(raw[_FREE_HEADER.size:head_size])
        body = raw[head_size:head_size + 4 * stored_count]
        if (
            magic != _FREE_MAGIC
            or len(body) != 4 * stored_count
            or zlib.crc32(raw[:_FREE_HEADER.size] + body) != crc
        ):
            raise RecoveryError(f"{path}: corrupt free-list file")
        if stored_gen != generation or stored_count != count:
            raise RecoveryError(
                f"{path}: free list is generation {stored_gen} "
                f"({stored_count} pages), header wants generation "
                f"{generation} ({count} pages)")
        return list(struct.unpack(f"<{stored_count}I", body))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, replay_upto: int | None) -> None:
        """Replay committed WAL batches against the checkpointed state.

        Each ALLOC is checked against a deterministic re-run of the
        allocator; a mismatch means the checkpoint and the log disagree
        and recovery refuses rather than guessing.
        """
        for batch in self.wal.replay(upto_seq=replay_upto):
            for rec_type, pid, image in batch.records:
                if rec_type == REC_ALLOC:
                    expected = self._free[-1] if self._free else self._next_id
                    if pid != expected:
                        raise RecoveryError(
                            f"{self.path}: replayed ALLOC({pid}) but the "
                            f"allocator would hand out {expected}")
                    if self._free:
                        self._free.pop()
                    else:
                        self._next_id += 1
                    self._allocated.add(pid)
                    self._overlay[pid] = bytes(self.page_size)
                elif rec_type == REC_FREE:
                    if pid not in self._allocated:
                        raise RecoveryError(
                            f"{self.path}: replayed FREE({pid}) on an "
                            "unallocated page")
                    self._allocated.discard(pid)
                    self._free.append(pid)
                    self._overlay.pop(pid, None)
                elif rec_type == REC_PAGE:
                    if pid not in self._allocated:
                        raise RecoveryError(
                            f"{self.path}: replayed PAGE({pid}) on an "
                            "unallocated page")
                    self._overlay[pid] = image

    # ------------------------------------------------------------------
    # DiskSimulator protocol
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a zeroed page; returns its page id."""
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
            if page_id >= NULL_PAGE:
                raise StorageError("page id space exhausted")
        self._allocated.add(page_id)
        if self.wal is not None:
            self.wal.append_alloc(page_id)
            self._overlay[page_id] = bytes(self.page_size)
        else:
            os.pwrite(self._h.fd, bytes(self.page_size),
                      self._offset(page_id))
        self.stats.allocations += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Return a page to the free list (typed error on double free)."""
        if page_id not in self._allocated:
            if page_id in self._free:
                raise DoubleFreeError(f"page {page_id} is already free")
            raise StorageError(f"page {page_id} is not allocated")
        if self.wal is not None:
            self.wal.append_free(page_id)
        self._allocated.discard(page_id)
        self._free.append(page_id)
        self._overlay.pop(page_id, None)
        self.stats.frees += 1

    def read_page(self, page_id: int) -> bytes:
        """Read a full page (counted as one physical read)."""
        self._require(page_id)
        self.stats.physical_reads += 1
        image = self._overlay.get(page_id)
        if image is not None:
            return image
        return self._read_raw(page_id)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write a full page image (counted as one physical write)."""
        self._require(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"page image of {len(data)} bytes on a "
                f"{self.page_size}-byte disk"
            )
        self.stats.physical_writes += 1
        if self.wal is not None:
            image = bytes(data)
            self.wal.append_page(page_id, image)
            self._overlay[page_id] = image
        else:
            os.pwrite(self._h.fd, bytes(data), self._offset(page_id))

    def is_allocated(self, page_id: int) -> bool:
        """Whether a page id refers to a live page."""
        return page_id in self._allocated

    @property
    def allocated_pages(self) -> int:
        """Number of live (allocated, not freed) pages."""
        return len(self._allocated)

    @property
    def allocated_bytes(self) -> int:
        """Total bytes held by live pages."""
        return len(self._allocated) * self.page_size

    # ------------------------------------------------------------------
    # durability points
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Make everything since the last commit durable; returns the
        commit's sequence number (0 in ``durability="none"`` mode, where
        this persists the header + free list)."""
        if self.wal is None:
            self._persist_allocator()
            return 0
        return self.wal.commit()

    def checkpoint(self) -> int:
        """Fold the overlay into the page file and reset the WAL.

        Implicitly commits first. The sequence is crash-safe at every
        step: page writes are idempotent redo, and the header flip to
        the new generation is a single fsynced 64-byte slot write — a
        crash before it leaves the old checkpoint + a replayable WAL, a
        crash after it leaves the new checkpoint (replaying the
        not-yet-reset WAL is a no-op because every batch's seq is at or
        below the header's ``checkpoint_seq``).
        """
        if self.wal is None:
            self._persist_allocator()
            return 0
        seq = self.wal.commit()
        needed = self._offset(self._next_id)
        if os.fstat(self._h.fd).st_size < needed:
            os.ftruncate(self._h.fd, needed)
        pages_done = 0
        for pid in sorted(self._overlay):
            self._maybe_crash(pages_done)
            os.pwrite(self._h.fd, self._overlay[pid], self._offset(pid))
            pages_done += 1
        self._maybe_crash(pages_done)
        os.fsync(self._h.fd)
        self._c_ckpt_pages.inc(pages_done)
        self._generation += 1
        self.checkpoint_seq = seq
        self._write_free_list(self._generation)
        self._write_header(fsync=True)
        self.wal.reset()
        self._overlay.clear()
        self._mapped = 0  # force a remap over the grown file
        return seq

    def close(self) -> None:
        """Release file handles. ``durability="none"`` persists the
        header + free list first (its only durability point); WAL mode
        persists nothing here — that is what commit/checkpoint are for.
        """
        if self._h.fd is not None and self.wal is None:
            self._persist_allocator()
        _release(self._h, self.wal)

    def _persist_allocator(self) -> None:
        """``durability="none"`` durability point: grow the file to
        cover every allocated page, then flip to a new generation so the
        free-list slot ping-pongs (a torn write hits the slot the old
        header does not read)."""
        needed = self._offset(self._next_id)
        if os.fstat(self._h.fd).st_size < needed:
            os.ftruncate(self._h.fd, needed)
        os.fsync(self._h.fd)
        self._generation += 1
        self._write_free_list(self._generation)
        self._write_header(fsync=True)

    def _maybe_crash(self, pages_done: int) -> None:
        if (
            self.fail_checkpoint_after is not None
            and pages_done >= self.fail_checkpoint_after
        ):
            self.fail_checkpoint_after = None
            raise FaultInjectedError(
                f"injected crash after {pages_done} checkpoint page "
                f"writes (before the header flip)",
                op="checkpoint", op_index=pages_done,
            )

    # ------------------------------------------------------------------
    # raw I/O
    # ------------------------------------------------------------------
    def _offset(self, page_id: int) -> int:
        return _PAGE0 + page_id * self.page_size

    def _read_raw(self, page_id: int) -> bytes:
        offset = self._offset(page_id)
        end = offset + self.page_size
        if self._h.mm is None or end > self._mapped:
            self._try_remap(end)
        mm = self._h.mm
        if mm is not None and end <= self._mapped:
            return bytes(mm[offset:end])
        data = os.pread(self._h.fd, self.page_size, offset)
        if len(data) < self.page_size:
            raise RecoveryError(
                f"{self.path}: page {page_id} extends past end of file")
        return data

    def _try_remap(self, needed_end: int) -> None:
        size = os.fstat(self._h.fd).st_size
        if size < needed_end:
            return
        if self._h.mm is not None:
            self._h.mm.close()
            self._h.mm = None
        self._h.mm = mmap.mmap(self._h.fd, size, access=mmap.ACCESS_READ)
        self._mapped = size

    def _require(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise StorageError(f"page {page_id} is not allocated")

    def __repr__(self) -> str:
        return (
            f"<FileDisk {self.data_dir!r} pages={self.allocated_pages} "
            f"durability={self.durability} gen={self._generation}>"
        )
