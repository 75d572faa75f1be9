"""Query planner for the R+-tree baseline.

Mirrors :class:`repro.core.planner.DualIndexPlanner` so benchmarks charge
both competitors identically: tree traversal page accesses plus one heap
page access per candidate record fetched for refinement, which runs
through the same :func:`repro.core.planner.refine_candidates`.

The asymmetry the paper exploits is visible here: an ALL selection has no
native R+-tree algorithm — every object whose MBR meets the half-plane
must be fetched and tested — while the dual index answers ALL with the
same sweep machinery as EXIST. Unbounded tuples cannot be inserted at all
(:meth:`build` raises), which is the paper's Figure 1 argument.
"""

from __future__ import annotations

from repro.constraints.relation import GeneralizedRelation
from repro.core.planner import refine_candidates
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.errors import GeometryError, IndexError_, QueryError
from repro.obs import trace as obs
from repro.rtree.base import RTreeBase
from repro.rtree.mbr import Rect
from repro.rtree.rplus import RPlusTree
from repro.storage.heap import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec, decode_tuple, encode_tuple


def _tile_key(rect: Rect) -> tuple[float, float]:
    """STR-ish spatial sort key: coarse x-tile, then y."""
    cx, cy = rect.center()[0], rect.center()[1]
    return (cx // 20.0, cy)


def _make_refiner(tuple_of_rid: dict[int, object]):
    """Geometry-backed piece refiner for the R+-tree bulk load.

    A clipped piece becomes the bounding box of the *object* restricted
    to the piece domain (None when the object has no points there) —
    tight, sound for refinement-free confirms, and duplication-reducing.
    Works by Sutherland–Hodgman clipping of the object's cached vertex
    ring against the domain box — O(v) per clip, so the bulk load stays
    fast.
    """
    from repro.geometry.hull import clip_polygon_to_box

    vertex_cache: dict[int, list] = {}

    def refine(rid: int, domain: Rect) -> Rect | None:
        if rid not in vertex_cache:
            vertex_cache[rid] = tuple_of_rid[rid].extension().vertices()
        (lx, ly), (hx, hy) = domain.lows, domain.highs
        clipped = clip_polygon_to_box(vertex_cache[rid], lx, ly, hx, hy)
        if not clipped:
            return None
        new_lx = min(x for x, _ in clipped)
        new_hx = max(x for x, _ in clipped)
        new_ly = min(y for _, y in clipped)
        new_hy = max(y for _, y in clipped)
        # Clamp: numerical slack must not leak outside the domain; a
        # degenerate sliver may collapse to a point after clamping.
        lo_x, hi_x = max(new_lx, lx), min(new_hx, hx)
        lo_y, hi_y = max(new_ly, ly), min(new_hy, hy)
        if lo_x > hi_x:
            lo_x = hi_x = (lo_x + hi_x) / 2.0
        if lo_y > hi_y:
            lo_y = hi_y = (lo_y + hi_y) / 2.0
        return Rect((lo_x, lo_y), (hi_x, hi_y))

    return refine


class RTreePlanner:
    """Half-plane ALL/EXIST over an R-tree with refinement."""

    def __init__(self, tree: RTreeBase, heap: HeapFile) -> None:
        self.tree = tree
        self.heap = heap
        self.rid_of: dict[int, int] = {}
        self.tid_of: dict[int, int] = {}
        self.skipped: list[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        pager: Pager | None = None,
        key_bytes: int = 4,
        fill: float = 0.7,
        tree_cls: type[RTreeBase] = RPlusTree,
    ) -> "RTreePlanner":
        """Bulk-build a tree+heap for a relation of *bounded* tuples.

        Unsatisfiable tuples are skipped (as in the dual index);
        unbounded tuples raise — the R-tree family cannot store them.
        """
        pager = pager if pager is not None else Pager()
        tree = tree_cls(pager, dimension=relation.dimension or 2,
                        key_codec=KeyCodec(key_bytes))
        heap = HeapFile(pager)
        planner = cls(tree, heap)
        staged: list[tuple[int, Rect]] = []
        tuples: dict[int, object] = {}
        for tid, t in relation:
            poly = t.extension()
            if poly.is_empty:
                planner.skipped.append(tid)
                continue
            if not poly.is_bounded:
                raise GeometryError(
                    f"tuple {tid} is unbounded: R-trees require finite "
                    f"objects (use the dual index)"
                )
            staged.append((tid, Rect.from_polyhedron(poly)))
            tuples[tid] = t
        # Cluster the heap spatially (STR-style tile order): the R+-tree's
        # refinement candidates are a band along the query line, so nearby
        # objects sharing pages keeps its fetches batched — the same
        # courtesy the dual index gets from key clustering.
        staged.sort(key=lambda it: _tile_key(it[1]))
        items: list[tuple[int, Rect]] = []
        tuple_of_rid: dict[int, object] = {}
        for tid, rect in staged:
            rid = heap.insert(encode_tuple(tid, tuples[tid]))
            planner.rid_of[tid] = rid
            planner.tid_of[rid] = tid
            tuple_of_rid[rid] = tuples[tid]
            items.append((rid, rect))
        if isinstance(tree, RPlusTree):
            tree.bulk_load(items, fill, piece_refiner=_make_refiner(tuple_of_rid))
        else:
            tree.bulk_load(items, fill)
        return planner

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, tid: int, t) -> None:
        """Dynamic insert of one bounded tuple; a tuple id already
        indexed is rejected before the heap is touched."""
        if tid in self.rid_of:
            raise IndexError_(f"tuple id {tid} already indexed")
        poly = t.extension()
        if poly.is_empty or not poly.is_bounded:
            raise GeometryError("R-tree tuples must be non-empty and bounded")
        rid = self.heap.insert(encode_tuple(tid, t))
        self.rid_of[tid] = rid
        self.tid_of[rid] = tid
        self.tree.insert(rid, Rect.from_polyhedron(poly))

    def delete(self, tid: int) -> None:
        """Delete a tuple by id."""
        rid = self.rid_of.pop(tid, None)
        if rid is None:
            raise QueryError(f"tuple id {tid} is not indexed")
        del self.tid_of[rid]
        _stored, t = decode_tuple(self.heap.fetch(rid))
        self.tree.delete(rid, Rect.from_polyhedron(t.extension()))
        self.heap.delete(rid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: HalfPlaneQuery) -> QueryResult:
        """Answer a half-plane query; result equals the exact oracle."""
        pager = self.tree.pager
        with obs.span(
            "query",
            pager=pager,
            type=query.query_type,
            intercept=f"{query.intercept:g}",
            structure=type(self.tree).__name__,
        ) as qspan:
            with pager.measure() as scope:
                result = self._execute(query)
            result.io = scope.delta
            if qspan is not None:
                qspan.incr("candidates", result.candidates)
                qspan.incr("results", len(result.ids))
                result.trace = qspan
        return result

    def exist(self, slope, intercept, theta=">=") -> QueryResult:
        """EXIST selection."""
        return self.query(HalfPlaneQuery(EXIST, slope, intercept, theta))

    def all(self, slope, intercept, theta=">=") -> QueryResult:
        """ALL selection (approximated by EXIST + refinement)."""
        return self.query(HalfPlaneQuery(ALL, slope, intercept, theta))

    def _execute(self, query: HalfPlaneQuery) -> QueryResult:
        with obs.span("sweep.rtree"):
            candidates = self.tree.search_halfplane(
                query.slope, query.intercept, query.theta, query.query_type
            )
        result = QueryResult(technique=f"{type(self.tree).__name__}")
        result.candidates = candidates.total
        result.accepted_without_refinement = len(candidates.confirmed)
        confirmed, result.false_hits, result.refinement_pages = (
            refine_candidates(self.heap, query, candidates.to_refine)
        )
        confirmed.update(self.tid_of[rid] for rid in candidates.confirmed)
        result.ids = confirmed
        return result
