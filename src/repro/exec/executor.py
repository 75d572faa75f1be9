"""The batch query execution engine.

Answering ``n`` half-plane selections one at a time costs ``n`` descents,
``n`` sweeps and up to ``n`` refinement fetches of the same heap pages.
:class:`BatchExecutor` answers the same batch with shared work:

* queries on a restricted slope are grouped by ``(slope index, type, θ)``
  — one group is one B+-tree and one sweep direction (Section 3), so the
  whole group is served by a *single* descent plus one merged range sweep
  (:meth:`repro.btree.tree.BPlusTree.sweep_up_multi`);
* boundary candidates of *all* exact groups are refined against one
  shared heap fetch (each distinct page read once per batch, pinned in
  the buffer pool while in use);
* queries on any other slope are answered from the vectorized dual
  surface (:class:`repro.geometry.vectorized.DualSurface`) — one numpy
  pass over the dual representation per distinct slope, not one
  tree traversal per query;
* identical queries hit an LRU result cache
  (:class:`repro.exec.cache.QueryResultCache`), invalidated whenever the
  index version changes.

Every answer set is identical to what :meth:`DualIndexPlanner.query`
returns sequentially (itself oracle-exact); only the page-access bill
changes. Batch I/O is accounted at batch scope (``BatchResult.io``)
because the whole point is that pages are *shared* between queries —
per-query ``QueryResult.io`` is left zero in batch mode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constraints.tuples import GeneralizedTuple
from repro.core.query import ALL, HalfPlaneQuery, QueryResult
from repro.errors import QueryError
from repro.exec.cache import CacheKey, QueryResultCache, cache_key
from repro.exec.grouping import ExactGroup, group_queries
from repro.exec.partials import TECH_VECTOR, ShardPartials
from repro.geometry.predicates import all_halfplane, exist_halfplane
from repro.geometry.vectorized import DualSurface
from repro.obs import slopelog
from repro.obs import trace as obs
from repro.obs import tracer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.heap import rid_pages, unpack_rid
from repro.storage.serialize import decode_tuple
from repro.storage.stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.planner import DualIndexPlanner


@dataclass
class BatchResult:
    """All answers of one batch plus the shared execution accounting."""

    #: Per-query results, aligned with the input query list.
    results: list[QueryResult] = field(default_factory=list)
    #: Page accounting for the *whole* batch (shared work included once).
    io: IOStats = field(default_factory=IOStats)
    cache_hits: int = 0
    cache_misses: int = 0
    exact_groups: int = 0
    vector_groups: int = 0
    #: Leaf pages visited by the merged sweeps.
    sweep_leaves: int = 0
    #: Distinct heap pages fetched by the shared refinement step.
    refinement_pages: int = 0

    @property
    def page_accesses(self) -> int:
        """Total pages the batch touched."""
        return self.io.logical_reads + self.io.logical_writes

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return (
            f"<BatchResult queries={len(self.results)} "
            f"pages={self.page_accesses} cache_hits={self.cache_hits} "
            f"groups={self.exact_groups}+{self.vector_groups}>"
        )


class BatchExecutor:
    """Executes batches of half-plane queries against one planner.

    Parameters
    ----------
    planner:
        The :class:`~repro.core.planner.DualIndexPlanner` whose index the
        batch runs against. Answers always equal ``planner.query``'s.
    cache_size:
        LRU result-cache capacity (0 disables caching).
    registry:
        Metrics registry for cache/batch counters; defaults to the
        process-wide one.

    Example::

        >>> from repro import DualIndexPlanner, GeneralizedRelation, parse_tuple
        >>> from repro.core.query import HalfPlaneQuery
        >>> from repro.exec import BatchExecutor
        >>> r = GeneralizedRelation([parse_tuple("y >= x and y <= 4 and x >= 0")])
        >>> planner = DualIndexPlanner.build(r, slopes=[-1.0, 0.0, 1.0])
        >>> batch = BatchExecutor(planner).execute(
        ...     [HalfPlaneQuery("EXIST", 0.0, 2.0, ">="),
        ...      HalfPlaneQuery("EXIST", 0.0, 2.0, ">=")]
        ... )
        >>> [sorted(res.ids) for res in batch.results]
        [[0], [0]]
        >>> batch.cache_hits   # the duplicate was not re-executed
        1
    """

    def __init__(
        self,
        planner: "DualIndexPlanner",
        cache_size: int = 256,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.planner = planner
        self.index = planner.index
        self.cache = QueryResultCache(cache_size)
        self.registry = registry if registry is not None else get_registry()
        self._io_lock = threading.Lock()
        self._surface: DualSurface | None = None
        self._surface_version: int | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, queries: Sequence[HalfPlaneQuery]) -> BatchResult:
        """Answer every query in the batch; results align with inputs."""
        log_slopes = self.planner.slope_logging
        for query in queries:
            if query.dimension != 2:
                raise QueryError("BatchExecutor is 2-D; use DDimPlanner")
            if log_slopes:
                slopelog.record(query.slope_2d, query.query_type)
        if self.planner.index.dynamic and self.planner._has_dirty_leaves():
            with obs.span("maintain", pager=self.index.pager):
                self.index.refresh_handicaps()
        version = self.index.version
        batch = BatchResult(results=[None] * len(queries))  # type: ignore[list-item]
        hits0, misses0 = self.cache.hits, self.cache.misses
        with obs.span("batch", pager=self.index.pager,
                      index=self.index.name, queries=len(queries),
                      **_trace_meta()):
            with self.index.pager.measure() as scope:
                self._execute(list(queries), version, batch)
            batch.io = scope.delta
        batch.cache_hits = self.cache.hits - hits0
        batch.cache_misses = self.cache.misses - misses0
        self._record_metrics(batch)
        return batch

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def _execute(
        self,
        queries: list[HalfPlaneQuery],
        version: int,
        batch: BatchResult,
    ) -> None:
        # 1. Resolve cache hits and intra-batch duplicates. The first
        # occurrence of each distinct query executes; later occurrences
        # are hits on the result being computed.
        pending: dict[CacheKey, list[int]] = {}
        fresh: list[tuple[int, HalfPlaneQuery]] = []
        for position, query in enumerate(queries):
            key = cache_key(query)
            if key in pending:
                self.cache.hits += 1
                pending[key].append(position)
                continue
            cached = self.cache.get(query, version)
            if cached is not None:
                batch.results[position] = _clone_cached(cached)
                continue
            pending[key] = [position]
            fresh.append((position, query))

        # 2. Group the fresh queries by shared work.
        exact_groups, vector_groups = group_queries(
            fresh, self.index.slopes, _slope_tol()
        )
        batch.exact_groups = len(exact_groups)
        batch.vector_groups = len(vector_groups)

        # 3. One merged sweep per exact group.
        sweeps = [self._sweep_group(group) for group in exact_groups]

        # 4. One shared refinement fetch for every boundary candidate of
        # every exact group, pages pinned while the verify loop runs.
        decoded = self._fetch_boundary(_boundary_union(sweeps), batch)

        # 5. Per-query verify + assemble, exactly the sequential
        # refinement predicate on exactly the sequential boundary set.
        for leaves, partials in sweeps:
            batch.sweep_leaves += leaves
            for position, query, accepted, boundary in partials:
                result = self._assemble_exact(query, accepted, boundary, decoded)
                batch.results[position] = result

        # 6. Vectorized path: one dual-surface pass per distinct slope.
        for group in vector_groups:
            surface = self._surface_for(version)
            for position, query in zip(group.indices, group.queries):
                result = QueryResult(technique="vector")
                result.set_lazy_ids(
                    surface.answer_tids(
                        query.query_type,
                        query.slope_2d,
                        query.intercept,
                        query.theta,
                    )
                )
                result.candidates = len(surface)
                batch.results[position] = result

        # 7. Publish to the cache and materialise duplicates.
        for key, positions in pending.items():
            first = batch.results[positions[0]]
            assert first is not None
            self.cache.put(queries[positions[0]], first, version)
            for position in positions[1:]:
                batch.results[position] = _clone_cached(first)

    def execute_partials(self, queries: Sequence[HalfPlaneQuery]) -> ShardPartials:
        """Answer a batch as compact :class:`ShardPartials` columns.

        Same grouping, sweeps, refinement and answers as
        :meth:`execute`, but per-query results stay numpy columns — no
        :class:`QueryResult` objects, no result cache. This is the path
        each shard of :class:`~repro.shard.ShardedDualIndex` runs: on a
        sharded batch the per-query Python assembly would otherwise be
        repeated on every shard, and it is exactly the cost that does
        not shrink with the shard count. Duplicate queries inside the
        batch are deduplicated the same way :meth:`execute` does, so
        page accounting matches :meth:`execute` bit for bit. Records the
        same ``exec_*`` metrics as :meth:`execute`.
        """
        for query in queries:
            if query.dimension != 2:
                raise QueryError("BatchExecutor is 2-D; use DDimPlanner")
        if self.planner.index.dynamic and self.planner._has_dirty_leaves():
            with obs.span("maintain", pager=self.index.pager):
                self.index.refresh_handicaps()
        version = self.index.version
        queries = list(queries)
        n = len(queries)
        out = ShardPartials(
            extras=[None] * n,
            technique=np.zeros(n, dtype=np.uint8),
            candidates=np.zeros(n, dtype=np.int64),
            false_hits=np.zeros(n, dtype=np.int64),
            accepted_without_refinement=np.zeros(n, dtype=np.int64),
            refinement_pages_q=np.zeros(n, dtype=np.int64),
        )
        columns: list = [None] * n
        with obs.span("batch", pager=self.index.pager,
                      index=self.index.name, queries=n,
                      **_trace_meta()):
            with self.index.pager.measure() as scope:
                self._execute_partials(queries, version, out, columns)
            out.io = scope.delta
        sizes = np.fromiter(
            (c.size for c in columns), dtype=np.int64, count=n
        )
        out.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=out.offsets[1:])
        out.tids = (
            np.concatenate(columns) if n else np.empty(0, dtype=np.int64)
        )
        self._record_metrics(out)
        return out

    def _execute_partials(
        self,
        queries: list[HalfPlaneQuery],
        version: int,
        out: ShardPartials,
        columns: list,
    ) -> None:
        # 1. Intra-batch duplicates execute once (same dedup as
        # `_execute`, so sweeps and page accounting are identical); the
        # result cache is not consulted — every batch is answered cold.
        pending: dict[CacheKey, list[int]] = {}
        fresh: list[tuple[int, HalfPlaneQuery]] = []
        for position, query in enumerate(queries):
            key = cache_key(query)
            if key in pending:
                out.cache_hits += 1
                pending[key].append(position)
                continue
            out.cache_misses += 1
            pending[key] = [position]
            fresh.append((position, query))

        exact_groups, vector_groups = group_queries(
            fresh, self.index.slopes, _slope_tol()
        )
        out.exact_groups = len(exact_groups)
        out.vector_groups = len(vector_groups)

        sweeps = [self._sweep_group(group) for group in exact_groups]
        scratch = BatchResult()
        decoded = self._fetch_boundary(_boundary_union(sweeps), scratch)
        out.refinement_pages = scratch.refinement_pages

        scratch_result = QueryResult()
        for leaves, partials in sweeps:
            out.sweep_leaves += leaves
            for position, query, accepted, boundary in partials:
                out.candidates[position] = len(accepted) + len(boundary)
                out.accepted_without_refinement[position] = len(accepted)
                columns[position] = self.index.tids_for_rids(accepted)
                boundary_list = boundary.tolist()
                if boundary_list:
                    out.refinement_pages_q[position] = int(
                        rid_pages(boundary).size
                    )
                    scratch_result.false_hits = 0
                    confirmed = self._verify_boundary(
                        query, boundary_list, decoded, scratch_result
                    )
                    out.false_hits[position] = scratch_result.false_hits
                    if confirmed:
                        out.extras[position] = confirmed

        for group in vector_groups:
            surface = self._surface_for(version)
            for position, query in zip(group.indices, group.queries):
                out.technique[position] = TECH_VECTOR
                columns[position] = surface.answer_tids(
                    query.query_type,
                    query.slope_2d,
                    query.intercept,
                    query.theta,
                )
                out.candidates[position] = len(surface)

        # Duplicate positions share the first occurrence's columns.
        for positions in pending.values():
            first = positions[0]
            for position in positions[1:]:
                columns[position] = columns[first]
                out.extras[position] = out.extras[first]
                out.technique[position] = out.technique[first]
                out.candidates[position] = out.candidates[first]
                out.false_hits[position] = out.false_hits[first]
                out.accepted_without_refinement[position] = (
                    out.accepted_without_refinement[first]
                )
                out.refinement_pages_q[position] = (
                    out.refinement_pages_q[first]
                )

    # ------------------------------------------------------------------
    # exact groups
    # ------------------------------------------------------------------
    def _sweep_group(
        self, group: ExactGroup
    ) -> tuple[int, list[tuple[int, HalfPlaneQuery, np.ndarray, np.ndarray]]]:
        """One shared descent + merged sweep, split per query.

        Returns ``(leaf pages swept, partials)`` where each partial is
        ``(original position, query, accepted rids, boundary rids)`` —
        the same two candidate sets the sequential exact path builds
        with its own sweep (same quantized start and accept boundaries),
        as int64 arrays. A query's entries are the suffix
        ``keys[offsets[j]:]`` of the shared sweep and its accept
        boundary lands at one ``searchsorted`` index, so accepted is
        ``rids[split:]`` and boundary ``rids[offsets[j]:split]`` (the
        sweep keys run toward the accept region in both directions).
        """
        theta = group.queries[0].theta
        trees, upward = self.index.trees_for(group.query_type, theta)
        tree = trees[group.slope_index]
        margins = [self.index.margin(q.intercept) for q in group.queries]
        if upward:
            starts = [
                q.intercept - m for q, m in zip(group.queries, margins)
            ]
            accepts = [
                tree.quantize(q.intercept + m)
                for q, m in zip(group.queries, margins)
            ]
        else:
            starts = [
                q.intercept + m for q, m in zip(group.queries, margins)
            ]
            accepts = [
                tree.quantize(q.intercept - m)
                for q, m in zip(group.queries, margins)
            ]
        with self._io_lock, obs.span(
            "sweep.batch", tree=tree.name, queries=len(group)
        ):
            sweep = (
                tree.sweep_up_multi(starts)
                if upward
                else tree.sweep_down_multi(starts)
            )
        # Ascending comparison space: up-sweeps accept keys >= accept,
        # down-sweeps (descending keys) accept keys <= accept.
        base = sweep.keys if upward else -sweep.keys
        probes = np.asarray(accepts, dtype=np.float64)
        if not upward:
            probes = -probes
        splits = np.searchsorted(base, probes, side="left")
        rids = sweep.rids
        partials = []
        for j, (position, query) in enumerate(
            zip(group.indices, group.queries)
        ):
            at = sweep.offsets[j]
            split = max(at, int(splits[j]))
            partials.append(
                (position, query, rids[split:], rids[at:split])
            )
        return sweep.leaves, partials

    def _fetch_boundary(
        self, boundary_rids: set[int], batch: BatchResult
    ) -> dict[int, tuple[int, GeneralizedTuple]]:
        """Fetch + decode all boundary candidates, each page once."""
        if not boundary_rids:
            return {}
        pages = {unpack_rid(rid)[0] for rid in boundary_rids}
        batch.refinement_pages = len(pages)
        with self._io_lock, self.index.pager.pinned(pages):
            with obs.span("fetch.batch", rids=len(boundary_rids)):
                records = self.index.heap.fetch_batch(boundary_rids)
        return {rid: decode_tuple(data) for rid, data in records.items()}

    def _assemble_exact(
        self,
        query: HalfPlaneQuery,
        accepted,
        boundary,
        decoded: dict[int, tuple[int, GeneralizedTuple]],
    ) -> QueryResult:
        result = QueryResult(technique="exact")
        result.accepted_without_refinement = len(accepted)
        result.candidates = len(accepted) + len(boundary)
        # Vectorized rid -> tid translation, the answer handed over as a
        # lazy tid column (materialised as a set on access).
        tids = self.index.tids_for_rids(accepted)
        if not len(boundary):
            result.set_lazy_ids(tids)
            return result
        result.refinement_pages = int(rid_pages(boundary).size)
        extra = self._verify_boundary(query, boundary.tolist(), decoded, result)
        result.set_lazy_ids(tids, extra)
        return result

    def _verify_boundary(
        self,
        query: HalfPlaneQuery,
        boundary,
        decoded: dict[int, tuple[int, GeneralizedTuple]],
        result: QueryResult,
    ) -> set[int]:
        """Run the refinement predicate over one query's boundary rids;
        returns the confirmed tids and counts false hits on ``result``."""
        predicate = all_halfplane if query.query_type == ALL else exist_halfplane
        slope, intercept, theta = query.slope_2d, query.intercept, query.theta
        confirmed: set[int] = set()
        for rid in boundary:
            tid, t = decoded[rid]
            if predicate(t.extension(), slope, intercept, theta):
                confirmed.add(tid)
            else:
                result.false_hits += 1
        return confirmed

    # ------------------------------------------------------------------
    # vector path
    # ------------------------------------------------------------------
    def _surface_for(self, version: int) -> DualSurface:
        """The dual surface of the current index contents (memoised).

        Building it costs one heap scan (each heap page one logical
        read); the surface then answers any number of non-restricted
        slopes without further I/O until the index version changes.
        """
        if self._surface is None or self._surface_version != version:
            with self._io_lock, obs.span("surface.build"):
                self._surface = DualSurface.from_items(
                    decode_tuple(data) for _rid, data in self.index.heap.scan()
                )
            self._surface_version = version
        return self._surface

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record_metrics(self, batch: BatchResult | ShardPartials) -> None:
        reg = self.registry
        reg.counter("exec_batches", "Batches executed").inc()
        reg.counter("exec_batch_queries", "Queries answered in batches").inc(
            len(batch)
        )
        reg.counter("exec_cache_hits", "Batch result-cache hits").inc(
            batch.cache_hits
        )
        reg.counter("exec_cache_misses", "Batch result-cache misses").inc(
            batch.cache_misses
        )
        reg.counter("exec_merged_sweeps", "Merged multi-key sweeps").inc(
            batch.exact_groups
        )
        reg.counter(
            "exec_vector_passes", "Vectorized dual-surface slope groups"
        ).inc(batch.vector_groups)
        reg.gauge("exec_cache_entries", "Resident cached results").set(
            len(self.cache)
        )

    def __repr__(self) -> str:
        return (
            f"<BatchExecutor index={self.index.name!r} cache={self.cache!r}>"
        )


def _clone_cached(result: QueryResult) -> QueryResult:
    """An independent copy of a cached result, marked as served-from-cache.

    The I/O block is zeroed: a cache hit touches no pages.
    """
    return QueryResult(
        ids=set(result.ids),
        technique=result.technique,
        candidates=result.candidates,
        false_hits=result.false_hits,
        duplicates=result.duplicates,
        accepted_without_refinement=result.accepted_without_refinement,
        refinement_pages=result.refinement_pages,
        cached=True,
    )


def _slope_tol() -> float:
    from repro.core.planner import SLOPE_TOL

    return SLOPE_TOL


def _trace_meta() -> dict:
    """Span meta tagging the batch with the active request's trace id
    (empty when no request context is installed — the common case)."""
    ctx = tracer.context()
    return {"trace": ctx.trace_id} if ctx is not None else {}


def _boundary_union(sweeps) -> set[int]:
    """Every boundary rid of every exact group's partials."""
    rids: set[int] = set()
    for _leaves, partials in sweeps:
        for _position, _query, _accepted, boundary in partials:
            rids.update(boundary.tolist())
    return rids
