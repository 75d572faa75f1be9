"""The d-dimensional extension of the dual index (Section 4.4).

In ``E^d`` every slope is a point ``b = (b_1, …, b_{d-1})``; the
predefined set ``S`` becomes a point set in slope space with a Voronoi
proximity structure. For every anchor ``b^i ∈ S`` two B+-trees hold
``TOP^P(b^i)`` / ``BOT^P(b^i)``; an approximate query anchors at the
nearest slope point (KD-tree lookup) and runs the same two-sweep
handicap search as in 2-D.

Design deviation (documented in DESIGN.md): instead of the paper's
``4d`` per-Voronoi-edge handicap values we store one *per-cell* pair per
leaf — the assignment key is the extremum of ``TOP``/``BOT`` over the
anchor's whole (domain-clipped) Voronoi cell, whose vertices realise the
extremum because ``TOP`` is convex and ``BOT`` concave. This is sound
for every query slope in the cell, needs only 2 aux slots, and requires
the query slope to lie in a declared bounded *slope domain* (the paper's
implicit assumption that queries stay near ``S``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.btree.tree import BPlusTree
from repro.constraints.relation import GeneralizedRelation
from repro.core.approx_t2 import HandicapSweep, handicap_sweep
from repro.core.planner import refine_candidates
from repro.core.proximity import KDTree, voronoi_neighbors
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.errors import IndexError_, QueryError, SlopeSetError
from repro.geometry import dual
from repro.obs import trace as obs
from repro.storage.heap import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec, decode_tuple, encode_tuple

AUX_LOW = 0
AUX_HIGH = 1


class SlopePointSet:
    """The d-dimensional slope set: anchors, domain, Voronoi cells."""

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        domain_lows: Sequence[float],
        domain_highs: Sequence[float],
    ) -> None:
        self.points = [tuple(float(v) for v in p) for p in points]
        if not self.points:
            raise SlopeSetError("slope point set must not be empty")
        self.slope_dim = len(self.points[0])
        if any(len(p) != self.slope_dim for p in self.points):
            raise SlopeSetError("mixed slope-point dimensions")
        if len(set(self.points)) != len(self.points):
            raise SlopeSetError("duplicate slope points")
        self.domain_lows = tuple(float(v) for v in domain_lows)
        self.domain_highs = tuple(float(v) for v in domain_highs)
        if len(self.domain_lows) != self.slope_dim or len(
            self.domain_highs
        ) != self.slope_dim:
            raise SlopeSetError("domain box dimension mismatch")
        if any(
            lo >= hi for lo, hi in zip(self.domain_lows, self.domain_highs)
        ):
            raise SlopeSetError("empty slope domain")
        self.kdtree = KDTree(self.points)
        self.adjacency = voronoi_neighbors(self.points)
        self._cells: dict[int, list[tuple[float, ...]]] = {}

    def __len__(self) -> int:
        return len(self.points)

    def in_domain(self, slope: Sequence[float]) -> bool:
        return all(
            lo - 1e-12 <= v <= hi + 1e-12
            for lo, hi, v in zip(self.domain_lows, self.domain_highs, slope)
        )

    def nearest(self, slope: Sequence[float]) -> int:
        """Index of the anchor nearest to the query slope."""
        return self.kdtree.nearest(slope)[0]

    def index_of(self, slope: Sequence[float], tol: float = 1e-12) -> int | None:
        index, dist = self.kdtree.nearest(slope)
        return index if dist <= tol else None

    # ------------------------------------------------------------------
    # Voronoi cells (domain-clipped)
    # ------------------------------------------------------------------
    def cell_vertices(self, index: int) -> list[tuple[float, ...]]:
        """Vertices of the anchor's Voronoi cell clipped to the domain."""
        if index not in self._cells:
            self._cells[index] = self._compute_cell(index)
        return self._cells[index]

    def _cell_ineqs(self, index: int):
        """Cell as ``n·x ≤ β`` inequalities: bisectors + domain box."""
        bi = self.points[index]
        ineqs = []
        for j in self.adjacency[index]:
            bj = self.points[j]
            normal = tuple(2 * (a - b) for a, b in zip(bj, bi))
            beta = sum(a * a for a in bj) - sum(b * b for b in bi)
            ineqs.append((normal, beta))
        for axis in range(self.slope_dim):
            unit = tuple(1.0 if a == axis else 0.0 for a in range(self.slope_dim))
            neg = tuple(-v for v in unit)
            ineqs.append((unit, self.domain_highs[axis]))
            ineqs.append((neg, -self.domain_lows[axis]))
        return ineqs

    def _compute_cell(self, index: int) -> list[tuple[float, ...]]:
        ineqs = self._cell_ineqs(index)
        if self.slope_dim == 1:
            lo = self.domain_lows[0]
            hi = self.domain_highs[0]
            for (n,), beta in ineqs:
                if n > 0:
                    hi = min(hi, beta / n)
                elif n < 0:
                    lo = max(lo, beta / n)
            return [(lo,), (hi,)] if lo <= hi else []
        if self.slope_dim == 2:
            from repro.geometry.support2d import _candidate_points

            pts = _candidate_points(
                [((n[0], n[1]), beta) for n, beta in ineqs], tol=1e-7
            )
            unique: list[tuple[float, ...]] = []
            for p in pts:
                tp = (round(p[0], 9), round(p[1], 9))
                if tp not in unique:
                    unique.append(tp)
            return unique
        from repro.geometry.supportnd import vertices_nd

        return vertices_nd(ineqs)


@dataclass
class DDimTrace(HandicapSweep):
    """Diagnostics of one d-dimensional T2 execution."""

    anchor: int = -1


class DDimDualIndex:
    """Static dual-representation index for d ≥ 2 dimensions."""

    def __init__(
        self,
        pager: Pager | None = None,
        slopes: SlopePointSet | None = None,
        key_codec: KeyCodec | None = None,
        name: str = "ddual",
    ) -> None:
        if slopes is None:
            raise SlopeSetError("DDimDualIndex needs a SlopePointSet")
        self.pager = pager if pager is not None else Pager()
        self.slopes = slopes
        self.codec = key_codec if key_codec is not None else KeyCodec(4)
        self.heap = HeapFile(self.pager)
        k = len(slopes)
        self.up = [
            BPlusTree(self.pager, self.codec, 2, f"{name}.up[{i}]")
            for i in range(k)
        ]
        self.down = [
            BPlusTree(self.pager, self.codec, 2, f"{name}.down[{i}]")
            for i in range(k)
        ]
        self.size = 0
        self.skipped: list[int] = []
        self.dimension = slopes.slope_dim + 1

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self, relation: GeneralizedRelation, fill: float = 0.9) -> None:
        """Index a d-dimensional relation (static bulk build)."""
        if self.size:
            raise IndexError_("build on a non-empty index")
        if relation.dimension not in (0, self.dimension):
            raise IndexError_(
                f"relation dimension {relation.dimension} does not match "
                f"slope-space dimension {self.dimension - 1} + 1"
            )
        k = len(self.slopes)
        up_entries: list[list[tuple[float, int]]] = [[] for _ in range(k)]
        down_entries: list[list[tuple[float, int]]] = [[] for _ in range(k)]
        assigns: dict[int, tuple[list[float], list[float]]] = {}
        for tid, t in relation:
            poly = t.extension()
            if poly.is_empty:
                self.skipped.append(tid)
                continue
            rid = self.heap.insert(encode_tuple(tid, t))
            a_top: list[float] = []
            a_bot: list[float] = []
            for i in range(k):
                anchor = self.slopes.points[i]
                top_v = dual.top(poly, anchor)
                bot_v = dual.bot(poly, anchor)
                assert top_v is not None and bot_v is not None
                up_entries[i].append((top_v, rid))
                down_entries[i].append((bot_v, rid))
                cell = self.slopes.cell_vertices(i)
                tops = [dual.top(poly, v) for v in cell] + [top_v]
                bots = [dual.bot(poly, v) for v in cell] + [bot_v]
                a_top.append(max(tops))
                a_bot.append(min(bots))
            assigns[rid] = (a_top, a_bot)
            self.size += 1
        for i in range(k):
            self.up[i].bulk_load(up_entries[i], fill)
            self.down[i].bulk_load(down_entries[i], fill)
            self._write_aggregates(i, assigns)

    def _write_aggregates(self, i: int, assigns) -> None:
        """Per-leaf min/max of the tree keys of the tuples whose
        assignment key (``a_top``/``a_bot`` of anchor ``i``) the leaf
        owns: the leaf with the last first-key ``<=`` the assignment key
        (the first leaf below every first key)."""
        for tree in (self.up[i], self.down[i]):
            chain = list(tree.leaf_chain())
            if not chain:
                continue
            bounds = np.array([columns.keys[0] for _pid, columns in chain])
            # Tree key per rid, read back from the freshly loaded leaves.
            key_of = {}
            for _pid, columns in chain:
                key_of.update(zip(columns.rids.tolist(), columns.keys.tolist()))
            values = np.array([key_of[rid] for rid in assigns])
            tops = tree.codec.quantize_many([a[i] for a, _b in assigns.values()])
            bots = tree.codec.quantize_many([b[i] for _a, b in assigns.values()])
            aggregates = np.empty((len(chain), 2))
            aggregates[:, AUX_LOW] = math.inf
            aggregates[:, AUX_HIGH] = -math.inf

            def owners(keys: np.ndarray) -> np.ndarray:
                return np.maximum(np.searchsorted(bounds, keys, "right") - 1, 0)

            np.minimum.at(aggregates[:, AUX_LOW], owners(tops), values)
            np.maximum.at(aggregates[:, AUX_HIGH], owners(bots), values)
            for (pid, _columns), aux in zip(chain, aggregates.tolist()):
                tree.set_handicaps(pid, aux)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def fetch_tuple(self, rid: int):
        return decode_tuple(self.heap.fetch(rid))

    def margin(self, value: float) -> float:
        scale = max(1.0, abs(value))
        return (1e-5 if self.codec.key_bytes == 4 else 1e-8) * scale

    def space(self):
        from repro.core.dual_index import IndexSpace

        return IndexSpace(
            sum(t.page_count for t in self.up + self.down),
            0,
            self.heap.page_count,
        )

    def trees_for(self, query_type: str, theta) -> tuple[list[BPlusTree], bool]:
        """Same Section 3 routing as the 2-D index."""
        from repro.constraints.theta import Theta

        if query_type == ALL:
            return (self.down, True) if theta is Theta.GE else (self.up, False)
        if query_type == EXIST:
            return (self.up, True) if theta is Theta.GE else (self.down, False)
        raise QueryError(f"unknown query type {query_type!r}")


class DDimPlanner:
    """Query interface over a :class:`DDimDualIndex`.

    Queries must carry a slope inside the index's declared slope domain;
    anchored execution uses the per-cell handicap search (exact sweep
    when the slope coincides with an anchor point).
    """

    def __init__(self, index: DDimDualIndex) -> None:
        self.index = index

    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        slope_points: Sequence[Sequence[float]],
        domain_lows: Sequence[float],
        domain_highs: Sequence[float],
        pager: Pager | None = None,
        key_bytes: int = 4,
        fill: float = 0.9,
    ) -> "DDimPlanner":
        """Build an index for a relation of any dimension ≥ 2."""
        slopes = SlopePointSet(slope_points, domain_lows, domain_highs)
        index = DDimDualIndex(pager, slopes, KeyCodec(key_bytes))
        index.build(relation, fill)
        return cls(index)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: HalfPlaneQuery) -> QueryResult:
        """Answer an ALL/EXIST selection; matches the exact oracle."""
        if query.dimension != self.index.dimension:
            raise QueryError(
                f"query dimension {query.dimension} against index "
                f"dimension {self.index.dimension}"
            )
        if not self.index.slopes.in_domain(query.slope):
            raise QueryError(
                f"query slope {query.slope} outside the declared slope "
                f"domain {self.index.slopes.domain_lows}.."
                f"{self.index.slopes.domain_highs}"
            )
        with obs.span(
            "query",
            pager=self.index.pager,
            type=query.query_type,
            dimension=query.dimension,
        ) as qspan:
            with self.index.pager.measure() as scope:
                result = self._execute(query)
            result.io = scope.delta
            if qspan is not None:
                result.trace = qspan
        return result

    def exist(self, slope, intercept: float, theta=">=") -> QueryResult:
        """EXIST selection."""
        return self.query(HalfPlaneQuery(EXIST, slope, intercept, theta))

    def all(self, slope, intercept: float, theta=">=") -> QueryResult:
        """ALL selection."""
        return self.query(HalfPlaneQuery(ALL, slope, intercept, theta))

    def _execute(self, query: HalfPlaneQuery) -> QueryResult:
        with obs.span("sweep.ddim"):
            trace = self._t2(query)
        result = QueryResult(technique=f"T2-d{self.index.dimension}")
        result.candidates = int(trace.candidates.size)
        result.ids, result.false_hits, result.refinement_pages = (
            refine_candidates(
                self.index.heap, query, trace.candidates.tolist()
            )
        )
        return result

    def _t2(self, query: HalfPlaneQuery) -> DDimTrace:
        index = self.index
        anchor = index.slopes.nearest(query.slope)
        trees, upward = index.trees_for(query.query_type, query.theta)
        trace = DDimTrace(anchor=anchor)
        handicap_sweep(
            trace,
            trees[anchor],
            query.intercept,
            upward,
            AUX_LOW if upward else AUX_HIGH,
            index.margin,
        )
        return trace
