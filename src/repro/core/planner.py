"""The query planner: technique dispatch plus the refinement step.

Given a half-plane query, the planner picks the cheapest sound path:

* slope ∈ S → the restricted technique (Section 3): one sweep, entries
  safely past the boundary margin accepted without fetching the record;
* slope ∉ S, interior → T2 (two disjoint sweeps in one tree);
* slope ∉ S, wrap-around (outside ``(min S, max S)``) or technique
  forced to T1 → two app-queries (Section 4.1);

and then *refines* (:func:`refine_candidates`): every candidate RID is
fetched from the heap (one counted page access per distinct page) and
checked against the exact ALL/EXIST predicate (:func:`refine_records`
— 2-D records in one columnar numpy pass, small slices and the few the
pass cannot decide exactly one at a time), so the final answer always
equals the oracle's. The R-tree and d-dimensional planners refine
through the same function; the batch executor shares the decision step.

T1 and T2 candidates are *settled* first (:mod:`repro.core.settle`):
their dual summaries are read from the index's summary file (one
counted page access per distinct summary page), definite hits are
accepted and definite misses dropped in one numpy pass, and only the
band between the bounds is refined.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.theta import Theta
from repro.core.approx_t1 import t1_candidates
from repro.core.approx_t2 import t2_candidates
from repro.core.dual_index import DualIndex
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.core.settle import settle
from repro.core.slope_set import SLOPE_TOL, SlopeSet
from repro.errors import QueryError
from repro.obs import slopelog
from repro.obs import trace as obs
from repro.geometry.polyhedron import WARM_CHUNK, warm_batch
from repro.geometry.predicates import all_halfplane, exist_halfplane
from repro.storage.heap import HeapFile, unpack_rid
from repro.storage.pager import Pager
from repro.storage.serialize import KeyCodec, decode_halfplanes_2d


class DualIndexPlanner:
    """High-level query interface over a :class:`DualIndex`."""

    def __init__(
        self,
        index: DualIndex,
        technique: str = "T2",
        pivot_x: float = 0.0,
    ) -> None:
        if technique not in ("T1", "T2"):
            raise QueryError("technique must be 'T1' or 'T2'")
        self.index = index
        self.technique = technique
        self.pivot_x = pivot_x
        self._batch_executor = None
        #: Set by :meth:`save`/:meth:`open`: the durable home directory.
        self.data_dir: str | None = None
        #: When False this planner's queries stay out of the slope log
        #: (shard-internal planners: the facade records each logical
        #: query once, so fan-out copies must not inflate the counts).
        self.slope_logging = True

    # ------------------------------------------------------------------
    # durability (see repro.storage.checkpoint and docs/STORAGE.md)
    # ------------------------------------------------------------------
    def save(self, data_dir: str) -> None:
        """Persist this planner to ``data_dir`` (checkpointed snapshot).

        A planner already running on a WAL-mode file-backed pager in
        ``data_dir`` checkpoints in place; any other planner is cloned
        into a fresh page file with identical accounting state.
        """
        from repro.storage.checkpoint import save_planner

        save_planner(self, data_dir)
        self.data_dir = data_dir

    def commit(self, data_dir: str | None = None) -> int:
        """Cheap durability point: fsync the WAL + write the catalog,
        without rewriting the page file. Requires a file-backed pager
        (``FileDisk`` in ``"wal"`` mode) in ``data_dir``."""
        from repro.storage.checkpoint import commit_planner

        target = data_dir if data_dir is not None else self.data_dir
        if target is None:
            raise QueryError("commit() needs a data_dir (none remembered)")
        seq = commit_planner(self, target)
        self.data_dir = target
        return seq

    @classmethod
    def open(cls, data_dir: str) -> "DualIndexPlanner":
        """Open a saved planner from disk without rebuilding."""
        from repro.storage.checkpoint import open_planner

        return open_planner(data_dir)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        slopes: SlopeSet | Iterable[float],
        pager: Pager | None = None,
        key_bytes: int = 4,
        technique: str = "T2",
        dynamic: bool = False,
        fill: float = 0.9,
        pivot_x: float = 0.0,
        name: str = "dual",
    ) -> "DualIndexPlanner":
        """Index a relation and return a ready planner."""
        index = DualIndex(
            pager=pager,
            slopes=slopes,
            key_codec=KeyCodec(key_bytes),
            dynamic=dynamic,
            name=name,
        )
        index.build(relation, fill)
        return cls(index, technique=technique, pivot_x=pivot_x)

    # ------------------------------------------------------------------
    # public query API
    # ------------------------------------------------------------------
    def query(self, query: HalfPlaneQuery, refresh: bool = True) -> QueryResult:
        """Answer a half-plane query; the result matches the exact oracle.

        When the index is dynamic and updates invalidated handicaps,
        maintenance runs first (outside the per-query I/O measurement)
        unless ``refresh=False``.

        Example::

            >>> from repro import GeneralizedRelation, parse_tuple
            >>> from repro.core import DualIndexPlanner, HalfPlaneQuery
            >>> r = GeneralizedRelation([parse_tuple("y >= x and y <= 4 and x >= 0")])
            >>> planner = DualIndexPlanner.build(r, slopes=[-1.0, 0.0, 1.0])
            >>> res = planner.query(HalfPlaneQuery("EXIST", 0.0, 2.0, ">="))
            >>> sorted(res.ids), res.technique
            ([0], 'exact')
        """
        if query.dimension != 2:
            raise QueryError("DualIndexPlanner is 2-D; use DDimPlanner")
        if self.slope_logging:
            slopelog.record(query.slope_2d, query.query_type)
        if refresh and self.index.dynamic and self._has_dirty_leaves():
            with obs.span("maintain", pager=self.index.pager):
                self.index.refresh_handicaps()
        with obs.span(
            "query",
            pager=self.index.pager,
            index=self.index.name,
            type=query.query_type,
            slope=f"{query.slope_2d:g}",
            intercept=f"{query.intercept:g}",
            theta=query.theta.value,
        ) as qspan:
            with self.index.pager.measure() as scope:
                result = self._execute(query)
            result.io = scope.delta
            if qspan is not None:
                qspan.meta["technique"] = result.technique
                qspan.incr("candidates", result.candidates)
                qspan.incr("results", len(result.ids))
                result.trace = qspan
        return result

    def query_batch(self, queries):
        """Answer many queries at once with shared work.

        Delegates to a lazily created :class:`repro.exec.BatchExecutor`
        (kept across calls so its result cache persists): restricted
        slopes share merged sweeps, other slopes are answered vectorized,
        and repeated queries hit the LRU cache. Answer sets are identical
        to calling :meth:`query` per query; page accounting is at batch
        scope. Returns a :class:`repro.exec.BatchResult`.

        Example::

            >>> from repro import DualIndexPlanner, GeneralizedRelation, parse_tuple
            >>> from repro.core.query import HalfPlaneQuery
            >>> r = GeneralizedRelation([parse_tuple("y <= 1 and y >= 0 and x >= 0 and x <= 1")])
            >>> planner = DualIndexPlanner.build(r, slopes=[0.0])
            >>> batch = planner.query_batch(
            ...     [HalfPlaneQuery("EXIST", 0.0, 0.5, ">=")]
            ... )
            >>> sorted(batch.results[0].ids)
            [0]
        """
        if getattr(self, "_batch_executor", None) is None:
            from repro.exec import BatchExecutor

            self._batch_executor = BatchExecutor(self)
        return self._batch_executor.execute(queries)

    def exist(
        self, slope: float, intercept: float, theta: Theta | str = ">="
    ) -> QueryResult:
        """EXIST selection: tuples whose extension meets the half-plane."""
        return self.query(HalfPlaneQuery(EXIST, slope, intercept, theta))

    def all(
        self, slope: float, intercept: float, theta: Theta | str = ">="
    ) -> QueryResult:
        """ALL selection: tuples contained in the half-plane."""
        return self.query(HalfPlaneQuery(ALL, slope, intercept, theta))

    # ------------------------------------------------------------------
    # updates (pass-through with deferred maintenance)
    # ------------------------------------------------------------------
    def insert(self, tid: int, t) -> None:
        """Insert a tuple (dynamic index only)."""
        self.index.insert(tid, t)

    def delete(self, tid: int) -> None:
        """Delete a tuple by id (dynamic index only)."""
        self.index.delete(tid)

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------
    def _execute(self, query: HalfPlaneQuery) -> QueryResult:
        with obs.span("plan"):
            slope_index = self.index.slopes.index_of(query.slope_2d, SLOPE_TOL)
            interior = (
                slope_index is None
                and self.technique == "T2"
                and self.index.slopes.anchor_for(query.slope_2d) is not None
            )
        if slope_index is not None:
            return self._exact_path(query, slope_index)
        if interior:
            return self._t2_path(query)
        # Wrap-around case: Section 4.2 develops T2 for the interior
        # case only; the planner executes the wrap cases through T1
        # with in-memory de-duplication (see DESIGN.md).
        return self._t1_path(query)

    def _exact_path(self, query: HalfPlaneQuery, slope_index: int) -> QueryResult:
        """The restricted technique as a one-query group of
        :meth:`DualIndex.restricted_split`: one sweep from the quantized
        start to the end of the leaf chain, split into accepted and
        boundary by one ``np.searchsorted``; the boundary is refined."""
        _leaves, [(accepted, boundary)] = self.index.restricted_split(
            slope_index, query.query_type, query.theta, [query.intercept]
        )
        result = QueryResult(technique="exact")
        result.accepted_without_refinement = int(accepted.size)
        result.candidates = int(accepted.size + boundary.size)
        confirmed, false_hits, pages = refine_candidates(
            self.index.heap, query, boundary.tolist()
        )
        result.set_lazy_ids(accepted, confirmed)
        result.false_hits = false_hits
        result.refinement_pages = pages
        return result

    def _t1_path(self, query: HalfPlaneQuery) -> QueryResult:
        rids, duplicates = t1_candidates(self.index, query, self.pivot_x)
        result = QueryResult(technique="T1", duplicates=duplicates)
        self._settle_and_refine(query, rids, result)
        return result

    def _t2_path(self, query: HalfPlaneQuery) -> QueryResult:
        trace = t2_candidates(self.index, query)
        result = QueryResult(technique="T2")
        self._settle_and_refine(query, trace.candidates, result)
        return result

    def _settle_and_refine(
        self, query: HalfPlaneQuery, candidates: np.ndarray, result: QueryResult
    ) -> None:
        """Settle the candidates from their summaries, refine the band.

        Summary pages count as refinement pages (the candidate check's
        I/O, outside the index accesses of Theorems 4.1/4.2); settled
        hits count as accepted without refinement and settled misses as
        false hits.
        """
        index = self.index
        with obs.span("settle"):
            rows, summary_pages = index.summaries.read(candidates)
            hit, miss = settle(rows, index.slopes, query, index.margin_scale)
            obs.incr("refine.settled_hits", int(hit.sum()))
            obs.incr("refine.settled_misses", int(miss.sum()))
        band = candidates[~(hit | miss)]
        confirmed, false_hits, heap_pages = refine_candidates(
            index.heap, query, band.tolist()
        )
        result.set_lazy_ids(index.tids_for_rids(candidates[hit]), confirmed)
        result.candidates = int(candidates.size)
        result.accepted_without_refinement = int(hit.sum())
        result.false_hits = int(miss.sum()) + false_hits
        result.summary_pages = summary_pages
        result.refinement_pages = summary_pages + heap_pages

    def _has_dirty_leaves(self) -> bool:
        return any(
            tree.dirty_leaves for tree in self.index.up + self.index.down
        )


#: Smallest 2-D slice the columnar kernel decides; smaller slices take
#: the scalar path. The kernel has a fixed cost: on the perfbench
#: relation (seed 1, 3,000 repeats per size, alternating order, 2-vCPU
#: VM) one record took a median 147 µs scalar against 242 µs kernel,
#: three 250 against 274, four 295 against 282 and eight 475 against
#: 315. Restricted-slope boundaries of one or two records are the common
#: case of a merged batch sweep.
KERNEL_MIN_RECORDS = 4


def refine_candidates(
    heap: HeapFile, query: HalfPlaneQuery, rids: Iterable[int]
) -> tuple[set[int], int, int]:
    """The refinement step: fetch the candidates, keep the true hits.

    Fetches the candidate records page-batched (the I/O cost is one page
    access per distinct heap page holding a candidate) and decides them
    with :func:`refine_records`. Used by :class:`DualIndexPlanner`,
    :class:`repro.rtree.planner.RTreePlanner` and
    :class:`repro.core.ddim.DDimPlanner`; the batch executor fetches its
    boundaries once per batch and calls :func:`refine_records` itself.

    Returns ``(confirmed tuple ids, false hits, refinement pages)``.
    """
    rids = list(rids)
    pages = len({unpack_rid(rid)[0] for rid in rids})
    with obs.span("fetch"):
        payloads = list(heap.fetch_batch(rids).values())
    confirmed, false_hits = refine_records(payloads, query)
    return confirmed, false_hits, pages


def refine_records(
    payloads: list[bytes], query: HalfPlaneQuery
) -> tuple[set[int], int]:
    """Test fetched records against the exact ALL/EXIST predicate.

    A 2-D slice of at least :data:`KERNEL_MIN_RECORDS` records is decoded
    column-wise (:func:`~repro.storage.serialize.decode_halfplanes_2d`)
    and decided in one numpy pass: the predicate, handed the rows, runs
    :func:`~repro.geometry.predicates.halfplane_rows`, which settles
    every record whose decision provably equals the scalar predicate's.
    The rest — smaller slices, unbounded, vertex-free, contradictory,
    degenerate or near-boundary records, and every record in d >= 3 —
    take the scalar path: :func:`decode_tuple`, one batched warm-up
    (:func:`~repro.geometry.polyhedron.warm_batch`), then
    :func:`exist_halfplane` / :func:`all_halfplane` per record.

    Returns ``(confirmed tuple ids, false hits)``.
    """
    # Imported here rather than bound at module level, so a wrapper
    # installed on ``serialize.decode_tuple`` (layer tracing) sees these
    # calls.
    from repro.storage.serialize import decode_tuple

    predicate = all_halfplane if query.query_type == ALL else exist_halfplane
    slope, intercept, theta = query.slope, query.intercept, query.theta
    with obs.span("verify"):
        confirmed: set[int] = set()
        false_hits = 0
        fallbacks = 0
        # Slices of WARM_CHUNK records: the padded arrays, decoded
        # tuples and cached geometry alive at once stay bounded however
        # many candidates a query has.
        for lo in range(0, len(payloads), WARM_CHUNK):
            chunk = payloads[lo : lo + WARM_CHUNK]
            if query.dimension == 2:
                if len(chunk) >= KERNEL_MIN_RECORDS:
                    rows = decode_halfplanes_2d(chunk)
                    holds, decided = predicate(
                        rows, query.slope_2d, intercept, theta
                    )
                    confirmed.update(rows.tids[decided & holds].tolist())
                    false_hits += int(np.count_nonzero(decided & ~holds))
                    chunk = [chunk[k] for k in np.flatnonzero(~decided).tolist()]
                fallbacks += len(chunk)
            items = [decode_tuple(data) for data in chunk]
            extensions = [t.extension() for _tid, t in items]
            warm_batch(extensions)
            for (tid, _t), poly in zip(items, extensions):
                if predicate(poly, slope, intercept, theta):
                    confirmed.add(tid)
                else:
                    false_hits += 1
        obs.incr("refine.confirmed", len(confirmed))
        obs.incr("refine.false_hits", false_hits)
        obs.incr("refine.scalar_fallbacks", fallbacks)
    return confirmed, false_hits
