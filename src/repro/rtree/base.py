"""Shared paged R-tree machinery: dynamic insert/delete and searches.

:class:`RTreeBase` implements the page I/O, Guttman-style dynamic
insertion (choose-least-enlargement descent, quadratic split), deletion,
and the two searches the benchmarks need — rectangle intersection and
half-plane candidate retrieval. :class:`repro.rtree.rplus.RPlusTree`
layers the disjoint bulk-packing of Sellis et al. on top;
:class:`repro.rtree.guttman.GuttmanRTree` is the classic overlapping
variant used in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.constraints.theta import Theta
from repro.errors import IndexError_, QueryError
from repro.obs import trace as obs
from repro.rtree.mbr import Rect
from repro.rtree.node import INTERNAL_KIND, LEAF_KIND, RTreeLayout, RTreeNode
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec


@dataclass
class HalfPlaneCandidates:
    """Result of a half-plane search before refinement.

    ``confirmed`` can be accepted without fetching the record (their MBR
    piece lies entirely inside the half-plane — valid for EXIST only);
    ``to_refine`` must be checked against the exact geometry.
    """

    confirmed: set[int] = field(default_factory=set)
    to_refine: set[int] = field(default_factory=set)

    @property
    def total(self) -> int:
        return len(self.confirmed) + len(self.to_refine)


class RTreeBase:
    """Common R-tree engine over a :class:`Pager`."""

    def __init__(
        self,
        pager: Pager,
        dimension: int = 2,
        key_codec: KeyCodec | None = None,
        name: str = "rtree",
    ) -> None:
        self.pager = pager
        self.codec = key_codec if key_codec is not None else KeyCodec(4)
        self.layout = RTreeLayout(pager.page_size, self.codec, dimension)
        self.dimension = dimension
        self.name = name
        self.root: int | None = None
        self.height = 0
        self.size = 0  # stored entries (>= distinct objects when clipped)
        self.owned_pages: set[int] = set()
        #: True while every stored piece is guaranteed to contain object
        #: points (whole MBRs, or geometry-refined clips). Required for
        #: refinement-free EXIST confirms; R+ bulk loads without a piece
        #: refiner clear it.
        self.pieces_are_tight = True

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _alloc(self) -> int:
        pid = self.pager.allocate()
        self.owned_pages.add(pid)
        return pid

    def _free(self, pid: int) -> None:
        self.owned_pages.discard(pid)
        self.pager.free(pid)

    def _read(self, pid: int) -> RTreeNode:
        return self.layout.decode(self.pager.read(pid))

    def _write(self, pid: int, node: RTreeNode) -> None:
        self.pager.write(pid, self.layout.encode(node))

    @property
    def page_count(self) -> int:
        """Pages owned by this tree."""
        return len(self.owned_pages)

    # ------------------------------------------------------------------
    # insertion (Guttman descent + quadratic split)
    # ------------------------------------------------------------------
    def insert(self, rid: int, rect: Rect) -> None:
        """Insert one (rid, MBR) entry."""
        if rect.dimension != self.dimension:
            raise IndexError_("entry dimension mismatch")
        if self.root is None:
            pid = self._alloc()
            self._write(pid, RTreeNode(LEAF_KIND, [rect], [rid]))
            self.root = pid
            self.height = 1
            self.size = 1
            return
        split = self._insert_rec(self.root, self.height, rid, rect)
        if split is not None:
            pieces = split
            new_root = self._alloc()
            self._write(
                new_root,
                RTreeNode(
                    INTERNAL_KIND,
                    [r for r, _ in pieces],
                    [p for _, p in pieces],
                ),
            )
            self.root = new_root
            self.height += 1
        self.size += 1

    def _insert_rec(
        self, pid: int, level: int, rid: int, rect: Rect
    ) -> list[tuple[Rect, int]] | None:
        node = self._read(pid)
        if level == 1:
            node.rects.append(rect)
            node.pointers.append(rid)
            return self._write_or_split(pid, node)
        choice = self._choose_child(node, rect)
        split = self._insert_rec(node.pointers[choice], level - 1, rid, rect)
        if split is None:
            # Tighten/grow the child rect to cover the new entry.
            node.rects[choice] = node.rects[choice].union(rect)
            self._write(pid, node)
            return None
        left_rect, right = split[0], split[1:]
        node.rects[choice] = left_rect[0]
        node.pointers[choice] = left_rect[1]
        for r, p in right:
            node.rects.append(r)
            node.pointers.append(p)
        return self._write_or_split(pid, node)

    def _write_or_split(
        self, pid: int, node: RTreeNode
    ) -> list[tuple[Rect, int]] | None:
        if node.count <= self.layout.capacity:
            self._write(pid, node)
            return None
        group_a, group_b = _quadratic_split(node.rects, node.pointers)
        node_a = RTreeNode(node.kind, [r for r, _ in group_a], [p for _, p in group_a])
        node_b = RTreeNode(node.kind, [r for r, _ in group_b], [p for _, p in group_b])
        pid_b = self._alloc()
        self._write(pid, node_a)
        self._write(pid_b, node_b)
        return [
            (node_a.covering_rect(), pid),
            (node_b.covering_rect(), pid_b),
        ]

    @staticmethod
    def _choose_child(node: RTreeNode, rect: Rect) -> int:
        best = 0
        best_cost = None
        for i, child_rect in enumerate(node.rects):
            cost = (child_rect.enlargement(rect), child_rect.area())
            if best_cost is None or cost < best_cost:
                best = i
                best_cost = cost
        return best

    # ------------------------------------------------------------------
    # deletion (condense-free: empty nodes are pruned, no re-insert)
    # ------------------------------------------------------------------
    def delete(self, rid: int, rect: Rect) -> int:
        """Remove every stored piece of ``rid`` overlapping ``rect``.

        Returns the number of removed entries (clipped objects may have
        several). Nodes left empty are pruned; partial underflow is
        tolerated (documented deviation from Guttman's re-insertion).
        """
        if self.root is None:
            return 0
        removed = self._delete_rec(self.root, self.height, rid, rect)
        self.size -= removed
        if removed and self.height > 1:
            root_node = self._read(self.root)
            if root_node.count == 1 and root_node.kind == INTERNAL_KIND:
                old = self.root
                self.root = root_node.pointers[0]
                self.height -= 1
                self._free(old)
            elif root_node.count == 0:
                self._free(self.root)
                self.root = None
                self.height = 0
        elif removed and self.size == 0 and self.root is not None:
            self._free(self.root)
            self.root = None
            self.height = 0
        return removed

    def _delete_rec(self, pid: int, level: int, rid: int, rect: Rect) -> int:
        node = self._read(pid)
        removed = 0
        if level == 1:
            keep_rects: list[Rect] = []
            keep_ptrs: list[int] = []
            for r, p in zip(node.rects, node.pointers):
                if p == rid and r.intersects(rect):
                    removed += 1
                else:
                    keep_rects.append(r)
                    keep_ptrs.append(p)
            if removed:
                node.rects = keep_rects
                node.pointers = keep_ptrs
                self._write(pid, node)
            return removed
        keep_rects = []
        keep_ptrs = []
        changed = False
        for r, p in zip(node.rects, node.pointers):
            if r.intersects(rect):
                sub_removed = self._delete_rec(p, level - 1, rid, rect)
                if sub_removed:
                    removed += sub_removed
                    child = self._read(p)
                    if child.count == 0:
                        self._free(p)
                        changed = True
                        continue
                    keep_rects.append(child.covering_rect())
                    keep_ptrs.append(p)
                    changed = True
                    continue
            keep_rects.append(r)
            keep_ptrs.append(p)
        if changed:
            node.rects = keep_rects
            node.pointers = keep_ptrs
            self._write(pid, node)
        return removed

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def search_rect(self, query: Rect) -> set[int]:
        """Rids whose stored MBR (piece) intersects the query box."""
        result: set[int] = set()
        if self.root is None:
            return result
        stack = [(self.root, self.height)]
        while stack:
            pid, level = stack.pop()
            node = self._read(pid)
            for r, p in zip(node.rects, node.pointers):
                if not r.intersects(query):
                    continue
                if level == 1:
                    result.add(p)
                else:
                    stack.append((p, level - 1))
        return result

    def search_halfplane(
        self,
        slope: Sequence[float] | float,
        intercept: float,
        theta: Theta,
        query_type: str = "EXIST",
    ) -> HalfPlaneCandidates:
        """Candidates for EXIST/ALL against ``x_d θ slope·x' + intercept``.

        As the paper observes, the R+-tree must approximate an ALL
        selection by an EXIST traversal: every object whose MBR meets the
        half-plane is a candidate and must be refined. For EXIST, pieces
        entirely inside the half-plane are confirmed for free.
        """
        if query_type not in ("ALL", "EXIST"):
            raise QueryError(f"query type must be ALL or EXIST, got {query_type!r}")
        if isinstance(slope, (int, float)):
            slope = (float(slope),)
        result = HalfPlaneCandidates()
        if self.root is None:
            return result
        stack = [(self.root, self.height)]
        while stack:
            pid, level = stack.pop()
            node = self._read(pid)
            obs.incr("rtree.node_visits")
            obs.incr("comparisons", node.count)
            for r, p in zip(node.rects, node.pointers):
                # Widened by the margin: a piece up to ORACLE_TOL on the
                # wrong side of the line is still an oracle answer, so
                # it must reach refinement. An enclosing MBR's margin is
                # at least its children's, so no such piece is pruned.
                margin = self._confirm_margin(r, slope)
                if not r.intersects_halfplane(
                    slope, intercept, theta, tol=margin
                ):
                    continue
                if level > 1:
                    stack.append((p, level - 1))
                elif (
                    query_type == "EXIST"
                    and self.pieces_are_tight
                    and r.inside_halfplane(
                        slope, intercept, theta, tol=-margin
                    )
                ):
                    # Strictly inside by more than the float32 coordinate
                    # rounding of the stored MBR: safe to confirm without
                    # fetching the record.
                    result.confirmed.add(p)
                else:
                    result.to_refine.add(p)
        result.to_refine -= result.confirmed
        return result

    def _confirm_margin(self, rect: Rect, slope: Sequence[float]) -> float:
        """Upper bound on the query-functional error caused by the
        outward float32 rounding of stored MBR coordinates, plus the
        oracle tolerance — the safety band for refinement-free accepts
        and for the descent test. It grows with the box, so an
        enclosing MBR's margin bounds its children's."""
        if self.codec.key_bytes == 8:
            return 1e-6
        eps = 2.4e-7  # two float32 ULP steps, relative
        extent = sum(
            abs(s) * max(abs(lo), abs(hi))
            for s, lo, hi in zip(slope, rect.lows, rect.highs)
        )
        extent += max(abs(rect.lows[-1]), abs(rect.highs[-1]))
        return eps * extent + 1e-6

    # ------------------------------------------------------------------
    # introspection / verification
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[tuple[int, Rect]]:
        """All stored (rid, piece-MBR) entries."""
        if self.root is None:
            return
        stack = [(self.root, self.height)]
        while stack:
            pid, level = stack.pop()
            node = self._read(pid)
            if level == 1:
                yield from zip(node.pointers, node.rects)
            else:
                stack.extend((p, level - 1) for p in node.pointers)

    def check_invariants(self) -> None:
        """Verify covering rectangles and node fill on every path."""
        if self.root is None:
            if self.size != 0:
                raise IndexError_("empty tree with non-zero size")
            return
        self._check_node(self.root, self.height)

    def _check_node(self, pid: int, level: int) -> Rect:
        node = self._read(pid)
        if node.count == 0:
            raise IndexError_(f"empty node {pid}")
        if node.count > self.layout.capacity:
            raise IndexError_(f"overfull node {pid}")
        expected_kind = LEAF_KIND if level == 1 else INTERNAL_KIND
        if node.kind != expected_kind:
            raise IndexError_(f"node {pid} kind mismatch at level {level}")
        if level > 1:
            for i, (r, p) in enumerate(zip(node.rects, node.pointers)):
                actual = self._check_node(p, level - 1)
                if not r.contains_rect(actual, tol=1e-5):
                    raise IndexError_(
                        f"node {pid} child {i} rect does not cover subtree"
                    )
        return node.covering_rect()


def _quadratic_split(
    rects: list[Rect], pointers: list[int]
) -> tuple[list[tuple[Rect, int]], list[tuple[Rect, int]]]:
    """Guttman's quadratic split of an overfull entry list."""
    entries = list(zip(rects, pointers))
    n = len(entries)
    # Pick the pair wasting the most area as seeds.
    worst = (0, 1)
    worst_waste = None
    for i in range(n):
        for j in range(i + 1, n):
            waste = (
                entries[i][0].union(entries[j][0]).area()
                - entries[i][0].area()
                - entries[j][0].area()
            )
            if worst_waste is None or waste > worst_waste:
                worst_waste = waste
                worst = (i, j)
    group_a = [entries[worst[0]]]
    group_b = [entries[worst[1]]]
    rect_a = entries[worst[0]][0]
    rect_b = entries[worst[1]][0]
    rest = [e for idx, e in enumerate(entries) if idx not in worst]
    minimum = max(1, n // 3)
    for idx, entry in enumerate(rest):
        remaining = len(rest) - idx
        if len(group_a) + remaining <= minimum:
            group_a.append(entry)
            rect_a = rect_a.union(entry[0])
            continue
        if len(group_b) + remaining <= minimum:
            group_b.append(entry)
            rect_b = rect_b.union(entry[0])
            continue
        grow_a = rect_a.enlargement(entry[0])
        grow_b = rect_b.enlargement(entry[0])
        if (grow_a, rect_a.area(), len(group_a)) <= (
            grow_b,
            rect_b.area(),
            len(group_b),
        ):
            group_a.append(entry)
            rect_a = rect_a.union(entry[0])
        else:
            group_b.append(entry)
            rect_b = rect_b.union(entry[0])
    return group_a, group_b
