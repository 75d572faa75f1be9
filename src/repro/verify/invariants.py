"""Structural invariant checkers, standalone or as differential-run hooks.

Each checker raises :class:`repro.errors.VerificationError` (wrapping the
subsystem's own error where one exists) on the first violation and
returns quietly otherwise, so the differential runner can treat "an
invariant broke" exactly like "an answer set diverged": capture, minimise,
write a repro.

Checkers
--------
* :func:`check_btree` — ordering, separators, fill bounds, leaf chain
  (delegates to :meth:`BPlusTree.check_invariants`), plus dirty-leaf
  bookkeeping.
* :func:`check_dual_index` — per-tree invariants for all 2k trees, the
  tid column as the inverse of the tuple-id → RID catalog, per-tree
  entry counts, and a summary file equal to one derived afresh from the
  heap records.
* :func:`check_envelopes` — TOP^P convexity and BOT^P concavity of the
  dual profiles (the shape facts Section 2.1 proves and the handicap
  machinery relies on), plus TOP ≥ BOT across the finite domain.
* :func:`check_buffer_pool` — frame-count vs capacity, dirty ⊆ resident,
  pin refcount sanity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.btree.tree import BPlusTree
from repro.constraints.tuples import GeneralizedTuple
from repro.core.settle import summary_rows
from repro.errors import IndexError_, VerificationError
from repro.geometry import dual
from repro.geometry.vectorized import DualSurface
from repro.storage.buffer import BufferPool
from repro.storage.serialize import decode_tuple

#: Slack for piecewise-slope monotonicity comparisons (profiles are
#: built from exact vertex arithmetic; this absorbs only float noise).
_SLOPE_SLACK = 1e-9


def check_btree(tree: BPlusTree) -> None:
    """Full structural check of one B+-tree."""
    try:
        tree.check_invariants()
    except IndexError_ as exc:
        raise VerificationError(f"B+-tree {tree.name!r}: {exc}") from exc
    stray = tree.dirty_leaves - tree.owned_pages
    if stray:
        raise VerificationError(
            f"B+-tree {tree.name!r}: dirty_leaves reference non-owned "
            f"pages {sorted(stray)}"
        )


def check_dual_index(index) -> None:
    """Invariants of a :class:`repro.core.dual_index.DualIndex`."""
    for tree in index.up + index.down:
        check_btree(tree)
        if tree.size != index.size:
            raise VerificationError(
                f"tree {tree.name!r} holds {tree.size} entries but the "
                f"index holds {index.size} tuples"
            )
    live = index.summaries.live_tids()
    if len(index.rid_of) != index.size or live != index.size:
        raise VerificationError(
            f"catalog size mismatch: {len(index.rid_of)} tids / "
            f"{live} live tid column entries vs index size {index.size}"
        )
    rids = list(index.rid_of.values())
    for tid, rid, got in zip(index.rid_of, rids,
                             index.tids_for_rids(rids).tolist()):
        if got != tid:
            raise VerificationError(
                f"tid column not the inverse of the catalog: tid {tid} "
                f"-> rid {rid} -> tid {got}"
            )
    _check_summaries(index)


def _check_summaries(index) -> None:
    """Every live record's summary equals one derived from the record."""
    records = [(rid, decode_tuple(data)) for rid, data in index.heap.scan()]
    if not records:
        return
    dtype = index.summaries.dtype
    with np.errstate(over="ignore"):
        want = summary_rows(
            DualSurface.from_items(item for _rid, item in records),
            index.slopes,
        ).astype(dtype)
    got, _pages = index.summaries.read([rid for rid, _item in records])
    stale = ~(
        (got.astype(dtype) == want) | (np.isnan(got) & np.isnan(want))
    ).all(axis=1)
    if stale.any():
        rid, (tid, _t) = records[int(np.flatnonzero(stale)[0])]
        raise VerificationError(
            f"summary of tuple {tid} (rid {rid}) differs from one derived "
            f"from its record ({int(stale.sum())} stale summaries)"
        )


def check_envelopes(t: GeneralizedTuple, samples: int = 5) -> None:
    """TOP convexity / BOT concavity of one tuple's dual profiles.

    A convex piecewise-linear function has non-decreasing piece slopes;
    a concave one non-increasing. Additionally ``TOP(s) >= BOT(s)`` at
    sampled slopes of the common finite domain. Empty tuples are
    skipped (they have no profile).
    """
    poly = t.extension()
    if poly.is_empty or poly.dimension != 2:
        return
    top_profile = dual.top_profile_2d(poly)
    bot_profile = dual.bot_profile_2d(poly)
    _check_piece_monotonicity(top_profile, increasing=True, label="TOP")
    _check_piece_monotonicity(bot_profile, increasing=False, label="BOT")
    lo = max(top_profile.domain_lo, bot_profile.domain_lo, -10.0)
    hi = min(top_profile.domain_hi, bot_profile.domain_hi, 10.0)
    if lo > hi:
        return
    for i in range(samples):
        s = lo + (hi - lo) * i / max(1, samples - 1)
        top_v, bot_v = top_profile(s), bot_profile(s)
        if top_v < bot_v - 1e-7 * max(1.0, abs(top_v), abs(bot_v)):
            raise VerificationError(
                f"TOP({s:g})={top_v:g} < BOT({s:g})={bot_v:g} for {t!r}"
            )


def _check_piece_monotonicity(profile, increasing: bool, label: str) -> None:
    slopes = [p.slope for p in profile.pieces]
    for a, b in zip(slopes, slopes[1:]):
        slack = _SLOPE_SLACK * max(1.0, abs(a), abs(b))
        if increasing and b < a - slack:
            raise VerificationError(
                f"{label} profile is not convex: piece slopes {a:g} -> {b:g}"
            )
        if not increasing and b > a + slack:
            raise VerificationError(
                f"{label} profile is not concave: piece slopes {a:g} -> {b:g}"
            )


def check_buffer_pool(pool: BufferPool) -> None:
    """Pin/page accounting of one buffer pool."""
    if pool.capacity == 0:
        if pool._frames or pool._pins:
            raise VerificationError(
                "zero-capacity pool holds frames or pins"
            )
        return
    unpinned = [pid for pid in pool._frames if pid not in pool._pins]
    overflow = len(pool._frames) - pool.capacity
    if overflow > 0 and len(unpinned) > 0 and overflow > len(pool._pins):
        raise VerificationError(
            f"pool holds {len(pool._frames)} frames over capacity "
            f"{pool.capacity} with evictable frames present"
        )
    if not set(pool._dirty) <= set(pool._frames):
        raise VerificationError(
            f"dirty pages {sorted(set(pool._dirty) - set(pool._frames))} "
            f"have no resident frame"
        )
    for pid, count in pool._pins.items():
        if count <= 0:
            raise VerificationError(f"page {pid} pinned with refcount {count}")
        if pid not in pool._frames:
            # Pinning a non-resident page is legal (it protects a future
            # frame), but a *negative* or zero count never is; nothing
            # more to check here.
            continue


def check_pager(pager) -> None:
    """Buffer-pool invariants reached through a pager facade."""
    check_buffer_pool(pager.buffer)
    if not math.isfinite(pager.stats.logical_reads):  # pragma: no cover
        raise VerificationError("non-finite I/O counters")
