"""Line-crossing selections via interval management (footnote 6).

For every slope in the predefined set ``S``, the relation's tuples are
the intervals ``[BOT^P(s), TOP^P(s)]`` on the intercept axis. The
interval tree answers the *line query* — all tuples whose extension the
line ``y = s·x + b`` crosses — in ``O(log n + t)`` page accesses, a
selection the B+-tree pair of Section 3 would need two sweeps plus an
intersection for.

Results are refined against the exact predicate (``BOT ≤ b ≤ TOP`` with
the oracle tolerance), so answers match the geometric truth even with
4-byte quantised keys.
"""

from __future__ import annotations

from repro.constraints.relation import GeneralizedRelation
from repro.core.query import QueryResult
from repro.core.slope_set import SlopeSet
from repro.errors import QueryError
from repro.geometry import bot, top
from repro.geometry.predicates import ORACLE_TOL
from repro.intervals.tree import Interval, IntervalTree
from repro.storage.heap import HeapFile, unpack_rid
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec, decode_tuple, encode_tuple


class LineQueryIndex:
    """Per-slope interval trees answering line-crossing selections."""

    def __init__(
        self,
        pager: Pager | None = None,
        slopes: SlopeSet | None = None,
        key_codec: KeyCodec | None = None,
    ) -> None:
        if slopes is None:
            raise QueryError("LineQueryIndex needs a SlopeSet")
        self.pager = pager if pager is not None else Pager()
        self.slopes = slopes
        self.codec = key_codec if key_codec is not None else KeyCodec(4)
        self.heap = HeapFile(self.pager)
        self.trees = [
            IntervalTree(self.pager, self.codec, f"line[{i}]")
            for i in range(len(slopes))
        ]
        self.size = 0
        self.skipped: list[int] = []

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        slopes: SlopeSet,
        pager: Pager | None = None,
        key_bytes: int = 4,
    ) -> "LineQueryIndex":
        """Index a 2-D relation for line queries at the slopes of S."""
        index = cls(pager, slopes, KeyCodec(key_bytes))
        per_slope: list[list[Interval]] = [[] for _ in slopes]
        for tid, t in relation:
            poly = t.extension()
            if poly.is_empty:
                index.skipped.append(tid)
                continue
            rid = index.heap.insert(encode_tuple(tid, t))
            for i, s in enumerate(slopes):
                lo = bot(poly, s)
                hi = top(poly, s)
                assert lo is not None and hi is not None
                per_slope[i].append(Interval(lo, hi, rid))
            index.size += 1
        for tree, intervals in zip(index.trees, per_slope):
            tree.build(intervals)
        return index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def crossing(self, slope: float, intercept: float) -> QueryResult:
        """Tuples whose extension the line ``y = slope·x + intercept``
        crosses. The slope must belong to S (the restricted setting of
        Section 3 / footnote 6)."""
        slope_index = self.slopes.index_of(slope, tol=1e-12)
        if slope_index is None:
            raise QueryError(
                f"line queries require slope in S, got {slope} "
                f"(S = {list(self.slopes)})"
            )
        with self.pager.measure() as scope:
            result = self._execute(slope_index, float(intercept))
        result.io = scope.delta
        return result

    def _execute(self, slope_index: int, intercept: float) -> QueryResult:
        margin = self._margin(intercept)
        rids = self.trees[slope_index].stab(intercept, margin)
        result = QueryResult(technique="interval")
        result.candidates = len(rids)
        result.refinement_pages = len({unpack_rid(r)[0] for r in rids})
        slope = self.slopes[slope_index]
        records = self.heap.fetch_batch(rids)
        ids: set[int] = set()
        for data in records.values():
            tid, t = decode_tuple(data)
            poly = t.extension()
            lo = bot(poly, slope)
            hi = top(poly, slope)
            if lo - ORACLE_TOL <= intercept <= hi + ORACLE_TOL:
                ids.add(tid)
            else:
                result.false_hits += 1
        result.ids = ids
        return result

    def _margin(self, value: float) -> float:
        scale = max(1.0, abs(value))
        return (1e-5 if self.codec.key_bytes == 4 else 1e-8) * scale

    def space_pages(self) -> int:
        """Interval-tree pages (excluding the shared heap)."""
        return sum(t.page_count for t in self.trees)
