"""A disk-based B+-tree with duplicate keys and leaf handicap slots.

Every node is one page of the simulated disk; every node touch is a
counted page access. The tree orders entries by the composite
``(key, rid)`` so duplicate keys — very common here, many tuples share a
``TOP``/``BOT`` value — keep a total order: separators are composite,
deletes are exact, and the locate-left descent never has to chain-walk.

Features: point/range search, merged leaf sweeps on cached numpy
columns (``sweep_up_multi``/``sweep_down_multi``, which every query path
uses), per-leaf iterators over decoded nodes (``sweep_up``/``sweep_down``,
for maintenance scans and as the tests' reference walk), insert with
splits, delete with borrow/merge rebalancing, O(N) bottom-up bulk
loading, per-leaf auxiliary "handicap" slots (Sections 4.2–4.3 of the
paper) with a validity flag, and an invariant checker used by the
test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.obs import trace as obs
from repro.storage.disk import NULL_PAGE
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec
from repro.btree.columnar import ColumnarCache
from repro.btree.node import (
    InternalArrays,
    InternalNode,
    LeafArrays,
    LeafNode,
    NodeLayout,
)

Composite = tuple[float, int]
_MAX_RID = 0xFFFFFFFF


@dataclass
class LeafVisit:
    """One leaf delivered by a sweep: its page id and decoded node."""

    page_id: int
    leaf: LeafNode


@dataclass
class MultiSweep:
    """The result of a merged multi-key sweep (batch execution).

    ``keys``/``rids`` are parallel float64 / int64 arrays in sweep order
    (ascending for :meth:`BPlusTree.sweep_up_multi`, descending for
    :meth:`BPlusTree.sweep_down_multi`). ``offsets`` aligns with the
    ``starts`` argument: the entries serving ``starts[i]`` are the suffix
    ``keys[offsets[i]:]`` — for an up-sweep those are the keys
    ``>= starts[i]``, for a down-sweep the keys ``<= starts[i]``.
    ``columns`` are the cached columns of the leaf pages the shared
    sweep touched, in sweep order (the descent leaf first).
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty(0))
    rids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    offsets: list[int] = field(default_factory=list)
    columns: list[LeafArrays] = field(default_factory=list)

    @property
    def leaves(self) -> int:
        """Leaf pages the shared sweep touched."""
        return len(self.columns)

    def entries_for(self, i: int) -> tuple[list[float], list[int]]:
        """The (keys, rids) slice serving the i-th start key."""
        at = self.offsets[i]
        return self.keys[at:].tolist(), self.rids[at:].tolist()


class BPlusTree:
    """B+-tree over a :class:`Pager`.

    Parameters
    ----------
    pager:
        Storage stack the nodes live on.
    key_codec:
        Key width codec; defaults to the paper's 4-byte keys.
    aux_slots:
        Number of per-leaf auxiliary float slots (handicap values). 0 for
        plain trees.
    name:
        Diagnostic label.

    Descent and merged sweeps run on cached numpy columns
    (``np.searchsorted`` over per-node key arrays); every node touch is
    still one counted ``pager.read``.
    """

    def __init__(
        self,
        pager: Pager,
        key_codec: KeyCodec | None = None,
        aux_slots: int = 0,
        name: str = "btree",
    ) -> None:
        self.pager = pager
        self.codec = key_codec if key_codec is not None else KeyCodec(4)
        self.layout = NodeLayout(pager.page_size, self.codec, aux_slots)
        self.name = name
        self._columns = ColumnarCache(self.layout)
        self.root: int | None = None
        self.height = 0
        self.size = 0
        self.first_leaf: int = NULL_PAGE
        self.last_leaf: int = NULL_PAGE
        self.owned_pages: set[int] = set()
        #: Leaves whose handicap aggregates were invalidated by updates.
        #: In-memory bookkeeping only (the durable truth is the leaf flag);
        #: maintenance layers consume this to avoid full-chain scans.
        self.dirty_leaves: set[int] = set()

    # ------------------------------------------------------------------
    # snapshot state (checkpoint/restore)
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """The tree's non-page state, JSON-serialisable.

        Everything else a live tree holds — node images — is already in
        the pager; together with this payload a tree reopens from disk
        without a rebuild (``repro.storage.checkpoint``).
        """
        return {
            "root": self.root,
            "height": self.height,
            "size": self.size,
            "first_leaf": self.first_leaf,
            "last_leaf": self.last_leaf,
            "owned_pages": sorted(self.owned_pages),
            "dirty_leaves": sorted(self.dirty_leaves),
        }

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_payload` (columnar cache starts cold)."""
        self.root = payload["root"]
        self.height = payload["height"]
        self.size = payload["size"]
        self.first_leaf = payload["first_leaf"]
        self.last_leaf = payload["last_leaf"]
        self.owned_pages = set(payload["owned_pages"])
        self.dirty_leaves = set(payload["dirty_leaves"])
        self._columns = ColumnarCache(self.layout)

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        pid = self.pager.allocate()
        self.owned_pages.add(pid)
        return pid

    def _free(self, pid: int) -> None:
        self.owned_pages.discard(pid)
        self.dirty_leaves.discard(pid)
        self._columns.invalidate(pid)
        self.pager.free(pid)

    def _read_leaf(self, pid: int) -> LeafNode:
        return self.layout.decode_leaf(self.pager.read(pid))

    def _read_internal(self, pid: int) -> InternalNode:
        return self.layout.decode_internal(self.pager.read(pid))

    def leaf_arrays(self, pid: int) -> LeafArrays:
        """Columnar leaf view. The ``pager.read`` is issued per touch —
        one logical read, exactly like :meth:`read_leaf` — only the
        decode is cached."""
        return self._columns.leaf(pid, self.pager.read(pid))

    def _internal_arrays(self, pid: int) -> InternalArrays:
        """Columnar internal view (counted read per touch, cached decode)."""
        return self._columns.internal(pid, self.pager.read(pid))

    def _write_leaf(self, pid: int, node: LeafNode) -> None:
        if self.layout.aux_slots:
            if node.handicaps_valid:
                self.dirty_leaves.discard(pid)
            else:
                self.dirty_leaves.add(pid)
        # Invalidate before the write: if the write faults, the cache
        # must not keep serving the page's old columns.
        self._columns.invalidate(pid)
        self.pager.write(pid, self.layout.encode_leaf(node))

    def _write_internal(self, pid: int, node: InternalNode) -> None:
        self._columns.invalidate(pid)
        self.pager.write(pid, self.layout.encode_internal(node))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def page_count(self) -> int:
        """Pages owned by this tree (Figure 10's space accounting)."""
        return len(self.owned_pages)

    def quantize(self, key: float) -> float:
        """The stored representation of a key."""
        return self.codec.quantize(float(key))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _descend_left(self, target: Composite) -> int:
        """Leaf that would contain the smallest entry >= target."""
        assert self.root is not None
        pid = self.root
        for _ in range(self.height - 1):
            arrs = self._internal_arrays(pid)
            obs.incr("btree.node_visits")
            at = _searchsorted_composite(
                arrs.keys, arrs.rids, target, right=False
            )
            pid = int(arrs.children[at])
        return pid

    def _descend_right(self, target: Composite) -> int:
        """Leaf that would contain the largest entry <= target."""
        assert self.root is not None
        pid = self.root
        for _ in range(self.height - 1):
            arrs = self._internal_arrays(pid)
            obs.incr("btree.node_visits")
            at = _searchsorted_composite(
                arrs.keys, arrs.rids, target, right=True
            )
            pid = int(arrs.children[at])
        return pid

    def search(self, key: float) -> list[int]:
        """All rids stored under exactly this (quantised) key."""
        if self.root is None:
            return []
        qkey = self.quantize(key)
        pid = self._descend_left((qkey, -1))
        result: list[int] = []
        while pid != NULL_PAGE:
            leaf = self._read_leaf(pid)
            for k, rid in zip(leaf.keys, leaf.rids):
                if k == qkey:
                    result.append(rid)
                elif k > qkey:
                    return result
            pid = leaf.next
        return result

    def contains(self, key: float, rid: int) -> bool:
        """Exact composite membership."""
        return rid in self.search(key)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def sweep_up(self, from_key: float | None = None) -> Iterator[LeafVisit]:
        """Visit leaves left→right starting at the leaf that would hold
        ``from_key`` (or the first leaf). Every yielded leaf counts as one
        page access; the caller filters entries and decides when to stop.
        """
        if self.root is None:
            return
        if from_key is None:
            pid = self.first_leaf
        else:
            with obs.span("descend", tree=self.name, height=self.height):
                pid = self._descend_left((self.quantize(from_key), -1))
        while pid != NULL_PAGE:
            leaf = self._read_leaf(pid)
            obs.incr("btree.leaf_visits")
            yield LeafVisit(pid, leaf)
            pid = leaf.next

    def sweep_down(self, from_key: float | None = None) -> Iterator[LeafVisit]:
        """Visit leaves right→left starting at the leaf that would hold
        ``from_key`` (or the last leaf)."""
        if self.root is None:
            return
        if from_key is None:
            pid = self.last_leaf
        else:
            with obs.span("descend", tree=self.name, height=self.height):
                pid = self._descend_right((self.quantize(from_key), _MAX_RID))
        while pid != NULL_PAGE:
            leaf = self._read_leaf(pid)
            obs.incr("btree.leaf_visits")
            yield LeafVisit(pid, leaf)
            pid = leaf.prev

    def sweep_up_multi(self, starts: Sequence[float]) -> MultiSweep:
        """Serve many ascending range sweeps with ONE descent + ONE sweep.

        ``starts`` are the per-query start keys (any order, duplicates
        allowed). The tree is descended once to the smallest start and
        swept once to the last leaf; every entry with key ``>=
        min(starts)`` is collected. The i-th query's entries are the
        suffix ``keys[offsets[i]:]`` (its keys ``>= quantize(starts[i])``)
        — exactly what ``sweep_up(starts[i])`` would have delivered, at
        the page cost of the single widest sweep instead of one descent
        and one overlapping sweep per query.
        """
        out = MultiSweep(offsets=[0] * len(starts))
        if self.root is None or len(starts) == 0:
            return out
        qstarts = self.codec.quantize_many(starts)
        lo = float(qstarts.min())
        with obs.span("descend", tree=self.name, height=self.height):
            pid = self._descend_left((lo, -1))
        out.columns = self._walk_columns(pid, upward=True)
        # Keys below ``lo`` can only exist in the descent leaf (the
        # chain is globally sorted), so only that leaf is trimmed.
        first, rest = out.columns[0], out.columns[1:]
        cut = int(np.searchsorted(first.keys, lo, side="left"))
        out.keys = np.concatenate([first.keys[cut:]] + [c.keys for c in rest])
        out.rids = np.concatenate([first.rids[cut:]] + [c.rids for c in rest])
        out.offsets = np.searchsorted(out.keys, qstarts, side="left").tolist()
        return out

    def sweep_down_multi(self, starts: Sequence[float]) -> MultiSweep:
        """Descending counterpart of :meth:`sweep_up_multi`.

        One descent to the largest start, one right-to-left sweep; the
        i-th query's entries are the suffix ``keys[offsets[i]:]`` of the
        *descending* entry list (its keys ``<= quantize(starts[i])``).
        """
        out = MultiSweep(offsets=[0] * len(starts))
        if self.root is None or len(starts) == 0:
            return out
        qstarts = self.codec.quantize_many(starts)
        hi = float(qstarts.max())
        with obs.span("descend", tree=self.name, height=self.height):
            pid = self._descend_right((hi, _MAX_RID))
        out.columns = self._walk_columns(pid, upward=False)
        # Keys above ``hi`` can only exist in the descent leaf.
        first, rest = out.columns[0], out.columns[1:]
        cut = int(np.searchsorted(first.keys, hi, side="right"))
        out.keys = np.concatenate(
            [first.keys[:cut][::-1]] + [c.keys[::-1] for c in rest]
        )
        out.rids = np.concatenate(
            [first.rids[:cut][::-1]] + [c.rids[::-1] for c in rest]
        )
        out.offsets = np.searchsorted(
            -out.keys, -qstarts, side="left"
        ).tolist()
        return out

    def _walk_columns(self, pid: int, upward: bool) -> list[LeafArrays]:
        """Columns of every leaf from ``pid`` to the end of the chain in
        sweep direction, one counted read per leaf."""
        columns: list[LeafArrays] = []
        while pid != NULL_PAGE:
            arrs = self.leaf_arrays(pid)
            obs.incr("btree.leaf_visits")
            obs.incr("comparisons", int(arrs.keys.size))
            columns.append(arrs)
            pid = arrs.next if upward else arrs.prev
        return columns

    def items_from(
        self, from_key: float, inclusive: bool = True
    ) -> Iterator[tuple[float, int]]:
        """Entries with key ≥ (or >) ``from_key``, ascending."""
        qkey = self.quantize(from_key)
        for visit in self.sweep_up(from_key):
            for k, rid in zip(visit.leaf.keys, visit.leaf.rids):
                if k > qkey or (inclusive and k == qkey):
                    yield (k, rid)

    def items_to(
        self, to_key: float, inclusive: bool = True
    ) -> Iterator[tuple[float, int]]:
        """Entries with key ≤ (or <) ``to_key``, descending."""
        qkey = self.quantize(to_key)
        for visit in self.sweep_down(to_key):
            for k, rid in zip(
                reversed(visit.leaf.keys), reversed(visit.leaf.rids)
            ):
                if k < qkey or (inclusive and k == qkey):
                    yield (k, rid)

    def items(self) -> Iterator[tuple[float, int]]:
        """All entries, ascending."""
        for visit in self.sweep_up(None):
            yield from zip(visit.leaf.keys, visit.leaf.rids)

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: float, rid: int) -> None:
        """Insert one entry (duplicates of both key and (key,rid) allowed;
        identical composites simply coexist)."""
        qkey = self.quantize(key)
        if self.root is None:
            pid = self._alloc()
            leaf = LeafNode([qkey], [rid])
            self._write_leaf(pid, leaf)
            self.root = pid
            self.first_leaf = self.last_leaf = pid
            self.height = 1
            self.size = 1
            return
        split = self._insert_rec(self.root, self.height, qkey, rid)
        if split is not None:
            sep, right_pid = split
            new_root = self._alloc()
            self._write_internal(
                new_root, InternalNode([sep], [self.root, right_pid])
            )
            self.root = new_root
            self.height += 1
        self.size += 1

    def _insert_rec(
        self, pid: int, level: int, key: float, rid: int
    ) -> tuple[Composite, int] | None:
        if level == 1:
            return self._insert_leaf(pid, key, rid)
        node = self._read_internal(pid)
        i = _bisect_right(node.seps, (key, rid))
        split = self._insert_rec(node.children[i], level - 1, key, rid)
        if split is None:
            return None
        sep, right_pid = split
        node.seps.insert(i, sep)
        node.children.insert(i + 1, right_pid)
        if node.count <= self.layout.internal_capacity:
            self._write_internal(pid, node)
            return None
        mid = node.count // 2
        promoted = node.seps[mid]
        right = InternalNode(node.seps[mid + 1 :], node.children[mid + 1 :])
        node.seps = node.seps[:mid]
        node.children = node.children[: mid + 1]
        right_pid2 = self._alloc()
        self._write_internal(pid, node)
        self._write_internal(right_pid2, right)
        return promoted, right_pid2

    def _insert_leaf(
        self, pid: int, key: float, rid: int
    ) -> tuple[Composite, int] | None:
        leaf = self._read_leaf(pid)
        i = _bisect_right_entries(leaf.keys, leaf.rids, (key, rid))
        leaf.keys.insert(i, key)
        leaf.rids.insert(i, rid)
        leaf.invalidate_handicaps()
        if i == 0:
            # The leaf's first key moved: the predecessor's handicap
            # ownership range changed too, so its aggregates go stale.
            self._invalidate_prev(leaf)
        if leaf.count <= self.layout.leaf_capacity:
            self._write_leaf(pid, leaf)
            return None
        mid = leaf.count // 2
        right = LeafNode(
            leaf.keys[mid:], leaf.rids[mid:], prev=pid, next=leaf.next
        )
        right.aux = [0.0] * self.layout.aux_slots
        leaf.keys = leaf.keys[:mid]
        leaf.rids = leaf.rids[:mid]
        right_pid = self._alloc()
        if leaf.next != NULL_PAGE:
            after = self._read_leaf(leaf.next)
            after.prev = right_pid
            self._write_leaf(leaf.next, after)
        else:
            self.last_leaf = right_pid
        leaf.next = right_pid
        self._write_leaf(pid, leaf)
        self._write_leaf(right_pid, right)
        return (right.keys[0], right.rids[0]), right_pid

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: float, rid: int) -> bool:
        """Delete the entry with this exact composite; False if absent."""
        if self.root is None:
            return False
        qkey = self.quantize(key)
        found = self._delete_rec(self.root, self.height, (qkey, rid))
        if not found:
            return False
        self.size -= 1
        # Shrink the root when it degenerates.
        while self.height > 1:
            root_node = self._read_internal(self.root)
            if root_node.count > 0:
                break
            old_root = self.root
            self.root = root_node.children[0]
            self.height -= 1
            self._free(old_root)
        if self.size == 0:
            self._free(self.root)
            self.root = None
            self.height = 0
            self.first_leaf = self.last_leaf = NULL_PAGE
        return True

    def _delete_rec(self, pid: int, level: int, target: Composite) -> bool:
        if level == 1:
            leaf = self._read_leaf(pid)
            i = _bisect_left_entries(leaf.keys, leaf.rids, target)
            if (
                i >= leaf.count
                or leaf.keys[i] != target[0]
                or leaf.rids[i] != target[1]
            ):
                return False
            del leaf.keys[i]
            del leaf.rids[i]
            leaf.invalidate_handicaps()
            if i == 0:
                self._invalidate_prev(leaf)
            self._write_leaf(pid, leaf)
            return True
        node = self._read_internal(pid)
        i = _bisect_right(node.seps, target)
        found = self._delete_rec(node.children[i], level - 1, target)
        if not found:
            return False
        self._rebalance_child(pid, node, i, level - 1)
        return True

    def _rebalance_child(
        self, pid: int, node: InternalNode, i: int, child_level: int
    ) -> None:
        child_pid = node.children[i]
        if child_level == 1:
            child = self._read_leaf(child_pid)
            minimum = self.layout.leaf_capacity // 2
            if child.count >= minimum:
                return
            self._fix_leaf(pid, node, i, child)
        else:
            child = self._read_internal(child_pid)
            minimum = self.layout.internal_capacity // 2
            if child.count >= minimum:
                return
            self._fix_internal(pid, node, i, child, child_level)

    def _fix_leaf(
        self, parent_pid: int, parent: InternalNode, i: int, child: LeafNode
    ) -> None:
        child_pid = parent.children[i]
        minimum = self.layout.leaf_capacity // 2
        # Try borrowing from the right sibling, then the left one.
        if i + 1 <= parent.count:
            right_pid = parent.children[i + 1]
            right = self._read_leaf(right_pid)
            if right.count > minimum:
                child.keys.append(right.keys.pop(0))
                child.rids.append(right.rids.pop(0))
                child.invalidate_handicaps()
                right.invalidate_handicaps()
                parent.seps[i] = (right.keys[0], right.rids[0])
                self._write_leaf(child_pid, child)
                self._write_leaf(right_pid, right)
                self._write_internal(parent_pid, parent)
                return
            # Merge child <- right.
            child.keys.extend(right.keys)
            child.rids.extend(right.rids)
            child.invalidate_handicaps()
            self._unlink_after(child_pid, child, right)
            del parent.seps[i]
            del parent.children[i + 1]
            self._write_leaf(child_pid, child)
            self._write_internal(parent_pid, parent)
            self._free(right_pid)
            return
        # Child is the rightmost: use the left sibling.
        left_pid = parent.children[i - 1]
        left = self._read_leaf(left_pid)
        if left.count > minimum:
            child.keys.insert(0, left.keys.pop())
            child.rids.insert(0, left.rids.pop())
            child.invalidate_handicaps()
            left.invalidate_handicaps()
            parent.seps[i - 1] = (child.keys[0], child.rids[0])
            self._write_leaf(child_pid, child)
            self._write_leaf(left_pid, left)
            self._write_internal(parent_pid, parent)
            return
        # Merge left <- child.
        left.keys.extend(child.keys)
        left.rids.extend(child.rids)
        left.invalidate_handicaps()
        self._unlink_after(left_pid, left, child)
        del parent.seps[i - 1]
        del parent.children[i]
        self._write_leaf(left_pid, left)
        self._write_internal(parent_pid, parent)
        self._free(child_pid)

    def _invalidate_prev(self, leaf: LeafNode) -> None:
        """Invalidate the handicaps of the leaf before ``leaf`` (if any)."""
        if self.layout.aux_slots == 0 or leaf.prev == NULL_PAGE:
            return
        before = self._read_leaf(leaf.prev)
        if before.handicaps_valid:
            before.invalidate_handicaps()
            self._write_leaf(leaf.prev, before)
        else:
            self.dirty_leaves.add(leaf.prev)

    def _unlink_after(self, left_pid: int, left: LeafNode, right: LeafNode) -> None:
        """Splice ``right`` (the leaf after ``left``) out of the chain."""
        left.next = right.next
        if right.next != NULL_PAGE:
            after = self._read_leaf(right.next)
            after.prev = left_pid
            self._write_leaf(right.next, after)
        else:
            self.last_leaf = left_pid

    def _fix_internal(
        self,
        parent_pid: int,
        parent: InternalNode,
        i: int,
        child: InternalNode,
        child_level: int,
    ) -> None:
        child_pid = parent.children[i]
        minimum = self.layout.internal_capacity // 2
        if i + 1 <= parent.count:
            right_pid = parent.children[i + 1]
            right = self._read_internal(right_pid)
            if right.count > minimum:
                child.seps.append(parent.seps[i])
                child.children.append(right.children.pop(0))
                parent.seps[i] = right.seps.pop(0)
                self._write_internal(child_pid, child)
                self._write_internal(right_pid, right)
                self._write_internal(parent_pid, parent)
                return
            child.seps.append(parent.seps[i])
            child.seps.extend(right.seps)
            child.children.extend(right.children)
            del parent.seps[i]
            del parent.children[i + 1]
            self._write_internal(child_pid, child)
            self._write_internal(parent_pid, parent)
            self._free(right_pid)
            return
        left_pid = parent.children[i - 1]
        left = self._read_internal(left_pid)
        if left.count > minimum:
            child.seps.insert(0, parent.seps[i - 1])
            child.children.insert(0, left.children.pop())
            parent.seps[i - 1] = left.seps.pop()
            self._write_internal(child_pid, child)
            self._write_internal(left_pid, left)
            self._write_internal(parent_pid, parent)
            return
        left.seps.append(parent.seps[i - 1])
        left.seps.extend(child.seps)
        left.children.extend(child.children)
        del parent.seps[i - 1]
        del parent.children[i]
        self._write_internal(left_pid, left)
        self._write_internal(parent_pid, parent)
        self._free(child_pid)

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load(
        self, entries: Iterable[tuple[float, int]], fill: float = 0.9
    ) -> None:
        """Bottom-up O(N) build from entries (any order; sorted internally).

        ``fill`` is the target leaf/internal occupancy. The tree must be
        empty.
        """
        if self.root is not None:
            raise IndexError_("bulk_load on a non-empty tree")
        if not 0.3 <= fill <= 1.0:
            raise IndexError_("fill factor must be in [0.3, 1.0]")
        data = sorted(
            ((self.quantize(k), rid) for k, rid in entries)
        )
        if not data:
            return
        leaf_target = max(
            2, self.layout.leaf_capacity // 2, int(self.layout.leaf_capacity * fill)
        )
        chunks = _chunk(
            data,
            leaf_target,
            minimum=self.layout.leaf_capacity // 2,
            capacity=self.layout.leaf_capacity,
        )
        leaf_pids = [self._alloc() for _ in chunks]
        level: list[tuple[Composite, int]] = []
        for idx, chunk in enumerate(chunks):
            leaf = LeafNode(
                [k for k, _ in chunk],
                [r for _, r in chunk],
                prev=leaf_pids[idx - 1] if idx > 0 else NULL_PAGE,
                next=leaf_pids[idx + 1] if idx + 1 < len(chunks) else NULL_PAGE,
            )
            leaf.aux = [0.0] * self.layout.aux_slots
            self._write_leaf(leaf_pids[idx], leaf)
            level.append((chunk[0], leaf_pids[idx]))
        self.first_leaf = leaf_pids[0]
        self.last_leaf = leaf_pids[-1]
        self.size = len(data)
        self.height = 1
        while len(level) > 1:
            internal_target = max(
                2,
                self.layout.internal_capacity // 2 + 1,
                int(self.layout.internal_capacity * fill),
            )
            groups = _chunk(
                level,
                internal_target + 1,
                minimum=self.layout.internal_capacity // 2 + 1,
                capacity=self.layout.internal_capacity + 1,
            )
            next_level: list[tuple[Composite, int]] = []
            for group in groups:
                pid = self._alloc()
                node = InternalNode(
                    [sep for sep, _ in group[1:]],
                    [child for _, child in group],
                )
                self._write_internal(pid, node)
                next_level.append((group[0][0], pid))
            level = next_level
            self.height += 1
        self.root = level[0][1]

    # ------------------------------------------------------------------
    # handicap support
    # ------------------------------------------------------------------
    def leaf_pids(self) -> Iterator[int]:
        """Leaf page ids, left to right (reads each leaf)."""
        return (pid for pid, _columns in self.leaf_chain())

    def leaf_chain(self) -> Iterator[tuple[int, LeafArrays]]:
        """``(page id, columns)`` of every leaf, left to right (one
        counted read each)."""
        pid = self.first_leaf
        while pid != NULL_PAGE:
            arrs = self.leaf_arrays(pid)
            yield pid, arrs
            pid = arrs.next

    def read_leaf(self, pid: int) -> LeafNode:
        """Public leaf read (counted access) for maintenance layers."""
        return self._read_leaf(pid)

    def set_handicaps(self, pid: int, values: Sequence[float]) -> None:
        """Install valid handicap aggregates on leaf ``pid`` (one counted
        read and one counted write)."""
        leaf = self._read_leaf(pid)
        leaf.set_handicaps(list(values))
        self._write_leaf(pid, leaf)

    def write_leaf(self, pid: int, leaf: LeafNode) -> None:
        """Public leaf write (counted) for maintenance layers."""
        self._write_leaf(pid, leaf)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`IndexError_` on any structural violation.

        Checks ordering, separator correctness, fill bounds, leaf-chain
        consistency and size. Test-suite helper; O(N) page reads.
        """
        if self.root is None:
            if self.size != 0 or self.height != 0:
                raise IndexError_("empty tree with non-zero size/height")
            return
        seen: list[Composite] = []
        chain: list[int] = []
        self._check_node(self.root, self.height, None, None, seen, chain,
                         is_root=True)
        if seen != sorted(seen):
            raise IndexError_("entries out of order")
        if len(seen) != self.size:
            raise IndexError_(f"size {self.size} but {len(seen)} entries")
        if chain and (chain[0] != self.first_leaf or chain[-1] != self.last_leaf):
            raise IndexError_("first/last leaf pointers wrong")
        forward = list(self.leaf_pids())
        if forward != chain:
            raise IndexError_("leaf chain disagrees with tree structure")

    def _check_node(
        self,
        pid: int,
        level: int,
        lo: Composite | None,
        hi: Composite | None,
        seen: list[Composite],
        chain: list[int],
        is_root: bool,
    ) -> None:
        if level == 1:
            leaf = self._read_leaf(pid)
            if not is_root and leaf.count < self.layout.leaf_capacity // 2:
                raise IndexError_(f"leaf {pid} underfull: {leaf.count}")
            if leaf.count > self.layout.leaf_capacity:
                raise IndexError_(f"leaf {pid} overfull")
            for entry in zip(leaf.keys, leaf.rids):
                if lo is not None and entry < lo:
                    raise IndexError_(f"leaf {pid} entry below separator")
                if hi is not None and entry >= hi:
                    raise IndexError_(f"leaf {pid} entry above separator")
                seen.append(entry)
            chain.append(pid)
            return
        node = self._read_internal(pid)
        if not is_root and node.count < self.layout.internal_capacity // 2:
            raise IndexError_(f"internal {pid} underfull: {node.count}")
        if node.count > self.layout.internal_capacity:
            raise IndexError_(f"internal {pid} overfull")
        bounds = [lo] + list(node.seps) + [hi]
        for idx, child in enumerate(node.children):
            self._check_node(
                child, level - 1, bounds[idx], bounds[idx + 1], seen, chain,
                is_root=False,
            )


# ----------------------------------------------------------------------
# composite bisect helpers (parallel key/rid lists)
# ----------------------------------------------------------------------
def _searchsorted_composite(
    keys: np.ndarray, rids: np.ndarray, target: Composite, right: bool
) -> int:
    """Vectorized composite bisect over parallel key/rid columns.

    Bisects the zipped ``(key, rid)`` pairs: the key column locates the
    equal-key run, the rid column (int64, so sentinel targets -1 and
    ``0xFFFFFFFF`` compare correctly) breaks the tie inside it.
    """
    key, rid = target
    lo = int(np.searchsorted(keys, key, side="left"))
    hi = int(np.searchsorted(keys, key, side="right"))
    if lo == hi:
        return lo
    side = "right" if right else "left"
    return lo + int(np.searchsorted(rids[lo:hi], rid, side=side))


def _bisect_right(seps: Sequence[Composite], target: Composite) -> int:
    lo, hi = 0, len(seps)
    while lo < hi:
        mid = (lo + hi) // 2
        if seps[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_left_entries(
    keys: Sequence[float], rids: Sequence[int], target: Composite
) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if (keys[mid], rids[mid]) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right_entries(
    keys: Sequence[float], rids: Sequence[int], target: Composite
) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if (keys[mid], rids[mid]) <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _chunk(
    data: list, target: int, minimum: int, capacity: int
) -> list[list]:
    """Split into chunks of ~target, keeping the final chunk >= minimum.

    The last two chunks are rebalanced when the tail falls below the
    minimum fill; if even their union cannot be split into two legal
    chunks, they are merged into one (never exceeding ``capacity``).
    """
    if not data:
        return []
    chunks = [data[i : i + target] for i in range(0, len(data), target)]
    if len(chunks) > 1 and len(chunks[-1]) < minimum:
        merged = chunks.pop()
        merged = chunks.pop() + merged
        if len(merged) <= capacity:
            chunks.append(merged)
        else:
            half = max(minimum, len(merged) // 2)
            chunks.append(merged[:half])
            chunks.append(merged[half:])
    return chunks
