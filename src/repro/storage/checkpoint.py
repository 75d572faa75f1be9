"""Checkpoint catalogs: save/commit/open for built engines.

The page file + WAL (``repro.storage.filepager``) persist page images;
this module persists the *engine* state on top — which pages form which
B+-tree, the tuple↔RID catalog, slopes, technique — as a JSON payload
in a CRC'd ping-pong catalog file pair (``catalog.0``/``catalog.1``).

The catalog write **is the commit point**: recovery replays the WAL
only up to the sequence number the newest valid catalog names, so a
crash between a WAL commit and the catalog write simply rolls back to
the previous catalog — engine state and page state can never be seen
out of step. Byte layout (spec in ``docs/STORAGE.md``)::

    b"RCAT" | u16 version | u16 reserved | u64 generation |
    u64 commit_seq | u32 payload_len | u32 crc32 | payload (UTF-8 JSON)

``crc32`` covers the 28 header bytes before it plus the payload. The
two slots alternate by generation; the valid slot with the higher
generation wins. The JSON payload may contain ``Infinity`` literals
(Python's default ``json`` dialect) — assignment extrema are ±inf on
empty strips.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.errors import RecoveryError, StorageError
from repro.storage.disk import DiskSimulator
from repro.storage.filepager import FileDisk
from repro.storage.pager import Pager

_MAGIC = b"RCAT"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQQI")  # magic, ver, reserved, gen, seq, len
_CRC = struct.Struct("<I")

CATALOG_FILES = ("catalog.0", "catalog.1")


# ----------------------------------------------------------------------
# catalog files
# ----------------------------------------------------------------------
def write_catalog(data_dir: str, payload: dict, commit_seq: int) -> int:
    """Durably write ``payload`` as the new catalog generation.

    Writes the slot the current generation does *not* occupy, fsyncs
    it, then fsyncs the directory (the slot file may be new). Returns
    the generation written.
    """
    current = _read_slots(data_dir)
    generation = (current[0][0] + 1) if current else 1
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = _HEADER.pack(_MAGIC, _VERSION, 0, generation, commit_seq,
                        len(body))
    crc = zlib.crc32(head + body)
    path = os.path.join(data_dir, CATALOG_FILES[generation % 2])
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        os.ftruncate(fd, 0)
        os.pwrite(fd, head + _CRC.pack(crc) + body, 0)
        os.fsync(fd)
    finally:
        os.close(fd)
    try:  # directory fsync: make the new file name itself durable
        dfd = os.open(data_dir, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return generation


def read_catalog(data_dir: str) -> tuple[dict, int, int]:
    """The newest valid catalog: ``(payload, commit_seq, generation)``.

    A corrupt newer slot falls back to the older one (the torn state of
    a crash mid-catalog-write); no valid slot at all raises
    :class:`~repro.errors.RecoveryError`.
    """
    slots = _read_slots(data_dir)
    if not slots:
        raise RecoveryError(f"{data_dir}: no valid catalog slot")
    generation, commit_seq, payload = slots[0]
    return payload, commit_seq, generation


def _read_slots(data_dir: str) -> list[tuple[int, int, dict]]:
    """Valid slots as ``(generation, commit_seq, payload)``, newest first."""
    out = []
    for name in CATALOG_FILES:
        path = os.path.join(data_dir, name)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        if len(raw) < _HEADER.size + _CRC.size:
            continue
        head = raw[:_HEADER.size]
        magic, version, _, generation, commit_seq, length = \
            _HEADER.unpack(head)
        if magic != _MAGIC or version != _VERSION:
            continue
        (crc,) = _CRC.unpack(raw[_HEADER.size:_HEADER.size + _CRC.size])
        body = raw[_HEADER.size + _CRC.size:]
        if len(body) < length or zlib.crc32(head + body[:length]) != crc:
            continue
        try:
            payload = json.loads(body[:length].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        out.append((generation, commit_seq, payload))
    out.sort(key=lambda s: s[0], reverse=True)
    return out


# ----------------------------------------------------------------------
# planner save / commit / open
# ----------------------------------------------------------------------
def _planner_payload(planner) -> dict:
    return {
        "kind": "planner",
        "technique": planner.technique,
        "pivot_x": planner.pivot_x,
        "page_size": planner.index.pager.page_size,
        "index": planner.index.catalog_payload(),
    }


def _live_disk(planner, data_dir: str) -> "FileDisk | None":
    """The planner's own FileDisk if it already lives in ``data_dir``."""
    disk = planner.index.pager.disk
    if (
        isinstance(disk, FileDisk)
        and disk.durability == "wal"
        and os.path.realpath(disk.data_dir) == os.path.realpath(data_dir)
    ):
        return disk
    return None


def commit_planner(planner, data_dir: str) -> int:
    """Durability point *without* a checkpoint: flush, fsync the WAL,
    write the catalog. Cheap (no page-file rewrite); recovery replays
    the WAL up to the returned sequence number. Requires the planner to
    already run on a WAL-mode :class:`FileDisk` in ``data_dir``."""
    disk = _live_disk(planner, data_dir)
    if disk is None:
        raise StorageError(
            f"commit requires a durability='wal' FileDisk in {data_dir}; "
            "use save() to snapshot an in-memory engine"
        )
    planner.index.pager.flush()
    seq = disk.commit()
    write_catalog(data_dir, _planner_payload(planner), seq)
    return seq


def save_planner(planner, data_dir: str) -> None:
    """Persist a planner to ``data_dir`` (checkpointed, WAL empty).

    A planner already running on a WAL-mode :class:`FileDisk` in
    ``data_dir`` is committed + checkpointed in place. Any other
    planner — on the in-memory simulator, or on a different directory —
    is *snapshotted*: its pages are cloned into a fresh FileDisk with
    identical allocator state, so the resulting directory reopens to a
    bit-identical index (same page ids, same free-list order, same
    future page accounting). The snapshot becomes visible atomically
    with the catalog write.
    """
    os.makedirs(data_dir, exist_ok=True)
    disk = _live_disk(planner, data_dir)
    if disk is not None:
        # Catalog *before* checkpoint: the checkpoint folds every
        # overlay page into the page file, so the catalog's commit
        # sequence must already cover them — a crash mid-fold then
        # replays every partially-folded page from the WAL instead of
        # reading a torn mix through the old catalog's sequence.
        planner.index.pager.flush()
        seq = disk.commit()
        write_catalog(data_dir, _planner_payload(planner), seq)
        disk.checkpoint()
        return
    planner.index.pager.flush()
    source = planner.index.pager.disk
    target = FileDisk(data_dir, page_size=source.page_size,
                      durability="wal")
    if target._next_id or target._allocated:
        raise StorageError(
            f"{data_dir} already holds a page file; save() snapshots "
            "into an empty directory (or the planner's own)"
        )
    target._next_id = source._next_id
    target._free = list(source._free)
    for pid in _page_ids(source):
        target._allocated.add(pid)
        target._overlay[pid] = _raw_page(source, pid)
    seq = target.checkpoint()  # folds the clone into the page file
    write_catalog(data_dir, _planner_payload(planner), seq)
    target.close()


def _page_ids(disk) -> list[int]:
    if isinstance(disk, DiskSimulator):
        return sorted(disk._pages)
    if isinstance(disk, FileDisk):
        return sorted(disk._allocated)
    raise StorageError(f"cannot snapshot pages from {type(disk).__name__}")


def _raw_page(disk, pid: int) -> bytes:
    """A page image without touching the source's physical counters."""
    if isinstance(disk, DiskSimulator):
        return disk._pages[pid]
    image = disk._overlay.get(pid)
    return image if image is not None else disk._read_raw(pid)


def open_planner(data_dir: str, buffer_frames: int = 0):
    """Open a saved planner from disk without rebuilding.

    Reads the newest valid catalog, then opens the page file with WAL
    replay bounded by the catalog's commit sequence — mutations logged
    after the catalog was written are rolled back, keeping engine and
    page state consistent.
    """
    from repro.core.dual_index import DualIndex
    from repro.core.planner import DualIndexPlanner
    from repro.storage.serialize import KeyCodec

    payload, seq, _generation = read_catalog(data_dir)
    if payload.get("kind") != "planner":
        raise StorageError(
            f"{data_dir} holds a {payload.get('kind')!r} catalog, "
            "expected 'planner' (use open_engine for either kind)")
    disk = FileDisk(data_dir, page_size=payload["page_size"],
                    durability="wal", replay_upto=seq)
    pager = Pager(page_size=payload["page_size"],
                  buffer_frames=buffer_frames, disk=disk)
    state = payload["index"]
    index = DualIndex(
        pager=pager,
        slopes=state["slopes"],
        key_codec=KeyCodec(state["key_bytes"]),
        dynamic=state["dynamic"],
        name=state["name"],
    )
    index.restore_catalog(state)
    planner = DualIndexPlanner(index, technique=payload["technique"],
                               pivot_x=payload["pivot_x"])
    planner.data_dir = data_dir
    return planner


def wal_size(planner) -> int:
    """Bytes currently in the planner's WAL (0 for non-durable planners).

    Includes the 16-byte file header, so an empty-but-present log
    reports a small non-zero size.
    """
    disk = planner.index.pager.disk
    if isinstance(disk, FileDisk) and disk.wal is not None:
        return disk.wal.size_bytes
    return 0


def maybe_checkpoint(planner, data_dir: str, threshold_bytes: int) -> bool:
    """Checkpoint the planner iff its WAL has outgrown ``threshold_bytes``.

    This is the serve layer's WAL-bounding primitive: `commit_planner`
    keeps commits cheap by letting the log grow, and this folds the log
    back into the page file once it passes the threshold. Returns True
    when a checkpoint ran. Ordering matches :func:`save_planner` — the
    catalog (commit point) is written *before* the page-file fold, so a
    crash mid-checkpoint replays the still-intact WAL on reopen.
    """
    disk = _live_disk(planner, data_dir)
    if disk is None or disk.wal is None:
        return False
    if disk.wal.size_bytes <= threshold_bytes:
        return False
    planner.index.pager.flush()
    seq = disk.commit()
    write_catalog(data_dir, _planner_payload(planner), seq)
    disk.checkpoint()
    return True


# ----------------------------------------------------------------------
# sharded save / open
# ----------------------------------------------------------------------
def save_sharded(engine, data_dir: str) -> None:
    """Persist a :class:`ShardedDualIndex`: one subdirectory per shard
    plus a manifest catalog. Each shard directory is individually
    crash-consistent; the manifest makes the set openable."""
    os.makedirs(data_dir, exist_ok=True)
    for n, planner in enumerate(engine.planners):
        save_planner(planner, os.path.join(data_dir, f"shard-{n}"))
    write_catalog(data_dir, {
        "kind": "sharded",
        "shards": len(engine.planners),
    }, 0)


def open_sharded(data_dir: str):
    """Open a saved :class:`ShardedDualIndex` from its manifest.

    Manifests written by older versions also carry a ``"fanout"`` key;
    it is ignored."""
    from repro.shard.sharded import ShardedDualIndex

    payload, _seq, _generation = read_catalog(data_dir)
    if payload.get("kind") != "sharded":
        raise StorageError(
            f"{data_dir} holds a {payload.get('kind')!r} catalog, "
            "expected 'sharded'")
    planners = [
        open_planner(os.path.join(data_dir, f"shard-{n}"))
        for n in range(payload["shards"])
    ]
    return ShardedDualIndex(planners)


# ----------------------------------------------------------------------
# kind-dispatching front door (what the CLI uses)
# ----------------------------------------------------------------------
def save_engine(engine, data_dir: str) -> None:
    """Persist a planner or sharded engine, whichever ``engine`` is."""
    if hasattr(engine, "planners"):
        save_sharded(engine, data_dir)
    else:
        save_planner(engine, data_dir)


def open_engine(data_dir: str):
    """Open whatever engine kind ``data_dir``'s catalog names."""
    payload, _seq, _generation = read_catalog(data_dir)
    if payload.get("kind") == "sharded":
        return open_sharded(data_dir)
    return open_planner(data_dir)
