"""Columnar decode cache for B+-tree pages (the vectorized hot path).

Decoding every touched page into Python lists and walking them entry
by entry would dominate the batch query path; the actual page *reads*
are cheap dictionary lookups in the simulated disk. So page images
decode into read-only numpy arrays (:class:`repro.btree.node.LeafArrays`
/ :class:`repro.btree.node.InternalArrays`) exactly once, cached by page
id, and every later touch of the same page re-issues the counted
``pager.read`` but reuses the decoded columns. Writers invalidate before
writing, so the cache can never serve stale columns.

Two invariants keep the paper's page accounting exact:

* every node touch still calls ``Pager.read`` (one logical read each —
  the paper's metric), the cache only skips the *decode*;
* invalidation happens in ``_write_leaf``/``_write_internal``/``_free``
  before the pager operation, so a failed write cannot leave a stale
  decoded page behind (fault-injection safe).
"""

from __future__ import annotations

from repro.btree.node import InternalArrays, LeafArrays, NodeLayout

#: Decoded pages kept per kind (leaf / internal) before FIFO eviction.
CACHE_CAPACITY = 1024


class ColumnarCache:
    """Per-tree cache ``page id -> decoded columns`` with FIFO eviction.

    Bounded so a huge tree cannot pin every decoded page in memory; the
    bound is a pure performance knob (eviction just means re-decoding on
    the next touch, never a different answer).
    """

    def __init__(self, layout: NodeLayout) -> None:
        self._layout = layout
        self._leaves: dict[int, LeafArrays] = {}
        self._internals: dict[int, InternalArrays] = {}

    def leaf(self, pid: int, data: bytes) -> LeafArrays:
        """Decoded columns of leaf page ``pid`` (``data`` is its image)."""
        hit = self._leaves.get(pid)
        if hit is None:
            hit = self._layout.decode_leaf_arrays(data)
            if len(self._leaves) >= CACHE_CAPACITY:
                self._leaves.pop(next(iter(self._leaves)))
            self._leaves[pid] = hit
        return hit

    def internal(self, pid: int, data: bytes) -> InternalArrays:
        """Decoded columns of internal page ``pid``."""
        hit = self._internals.get(pid)
        if hit is None:
            hit = self._layout.decode_internal_arrays(data)
            if len(self._internals) >= CACHE_CAPACITY:
                self._internals.pop(next(iter(self._internals)))
            self._internals[pid] = hit
        return hit

    def invalidate(self, pid: int) -> None:
        """Drop any decoded columns for ``pid`` (page about to change)."""
        self._leaves.pop(pid, None)
        self._internals.pop(pid, None)

    def clear(self) -> None:
        self._leaves.clear()
        self._internals.clear()

    def __len__(self) -> int:
        return len(self._leaves) + len(self._internals)

    def __repr__(self) -> str:
        return (
            f"<ColumnarCache leaves={len(self._leaves)} "
            f"internals={len(self._internals)} cap={CACHE_CAPACITY}>"
        )
