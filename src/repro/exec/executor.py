"""The batch query execution engine.

Answering ``n`` half-plane selections one at a time costs ``n`` descents,
``n`` sweeps and up to ``n`` refinement fetches of the same heap pages.
:class:`BatchExecutor` answers the same batch with shared work:

* queries on a restricted slope are grouped by ``(slope index, type, θ)``
  — one group is one B+-tree and one sweep direction (Section 3), so the
  whole group is served by a *single* descent plus one merged range sweep,
  split per query (:meth:`repro.core.dual_index.DualIndex.restricted_split`,
  the split the sequential exact path runs as a one-query group);
* boundary candidates of *all* exact groups are fetched once (each
  distinct page read once per batch, pinned in the buffer pool while in
  use), and each query's boundary records are decided by
  :func:`repro.core.planner.refine_records`, the sequential planners'
  refinement step;
* queries on any other slope are answered from the index's vectorized
  dual surface (:meth:`repro.core.dual_index.DualIndex.surface`, built
  once and patched by every insert and delete) — one numpy pass over
  the dual representation per distinct slope, not one tree traversal
  per query;
* identical queries hit an LRU result cache
  (:class:`repro.exec.cache.QueryResultCache`), invalidated whenever the
  index version changes.

One private pipeline, :meth:`BatchExecutor._run`, answers a batch of
distinct queries into :class:`~repro.exec.partials.ShardPartials`
(per-query tid arrays and counters); both entry points deduplicate the
batch once, in :func:`_distinct`. :meth:`BatchExecutor.execute` is the
result-cache layer over it: hits and in-batch duplicates are served
from earlier answers, the distinct misses run through ``_run``, and
:func:`merge_partials` assembles the :class:`BatchResult`.
:meth:`BatchExecutor.execute_partials` runs ``_run`` on the batch's
distinct queries with no cache — each shard of a sharded engine calls
it, and the same :func:`merge_partials` combines the shards.

Every answer set is identical to what :meth:`DualIndexPlanner.query`
returns sequentially (itself oracle-exact); only the page-access bill
changes. Neither path reads a handicap aggregate, so a batch never
refreshes the handicaps an update invalidated: that stays with the
T1/T2 planner path, which refreshes lazily. Batch I/O is accounted at
batch scope (``BatchResult.io``) because the whole point is that pages
are *shared* between queries — per-query ``QueryResult.io`` is left
zero in batch mode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.planner import DualIndexPlanner, refine_records
from repro.core.query import HalfPlaneQuery, QueryResult
from repro.core.slope_set import SLOPE_TOL
from repro.errors import QueryError
from repro.exec.cache import CacheKey, QueryResultCache, cache_key
from repro.exec.grouping import group_queries
from repro.exec.partials import ShardPartials
# Not called here (refinement runs in ``refine_records``): the
# benchmark's probe table, ``perfbench/layers.py`` PROBES, looks up
# ``exist_halfplane``, ``all_halfplane`` and ``decode_tuple`` in this
# module, so the three names stay bound.
from repro.geometry.predicates import all_halfplane, exist_halfplane  # noqa: F401
from repro.geometry.vectorized import DualSurface
from repro.obs import slopelog
from repro.obs import trace as obs
from repro.obs import tracer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.heap import rid_pages, unpack_rid
from repro.storage.serialize import decode_tuple  # noqa: F401
from repro.storage.stats import IOStats


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
        #: ``exec_*`` metric handles, bound once per registry generation.
        self._handles: tuple = ()
        self._handles_generation = -1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, queries: Sequence[HalfPlaneQuery]) -> BatchResult:
        """Answer every query in the batch; results align with inputs.

        The result-cache layer over :meth:`_run`: cache hits and later
        occurrences of a query are served without execution (``cached``
        set), the distinct misses run as one batch and are published to
        the cache.
        """
        queries = list(queries)
        _check_2d(queries)
        if self.planner.slope_logging:
            for query in queries:
                slopelog.record(query.slope_2d, query.query_type)
        version = self.index.version
        hits0, misses0 = self.cache.hits, self.cache.misses
        fresh, positions, hits = _distinct(queries, self.cache, version)
        batch = merge_partials([self._measured_run(fresh, len(queries))])
        for query, result in zip(fresh, batch.results):
            self.cache.put(query, result, version)
        if len(fresh) < len(queries):
            results: list = [None] * len(queries)
            for position, cached in hits:
                results[position] = _clone_cached(cached)
            for at, result in zip(positions, batch.results):
                results[at[0]] = result
                for position in at[1:]:
                    results[position] = _clone_cached(result)
            batch.results = results
        batch.cache_hits = self.cache.hits - hits0
        batch.cache_misses = self.cache.misses - misses0
        self._record_metrics(batch)
        return batch

    def execute_partials(self, queries: Sequence[HalfPlaneQuery]) -> ShardPartials:
        """Answer a batch as :class:`ShardPartials`, without the cache.

        The pipeline :meth:`execute` runs on its cache misses, applied
        to the whole batch: per-query answers stay tid arrays — no
        :class:`QueryResult` objects — and the result cache is not
        consulted. This is what each shard of
        :class:`~repro.shard.ShardedDualIndex` runs; :func:`merge_partials`
        assembles the shards' partials. Duplicate queries inside the
        batch execute once and count as cache hits, so page accounting
        equals :meth:`execute`'s on a cold cache. Records the same
        ``exec_*`` metrics as :meth:`execute`.
        """
        queries = list(queries)
        _check_2d(queries)
        fresh, positions, _hits = _distinct(queries)
        out = self._measured_run(fresh, len(queries))
        if len(fresh) < len(queries):
            out.spread(positions, len(queries))
        out.cache_hits = len(queries) - len(fresh)
        out.cache_misses = len(fresh)
        self._record_metrics(out)
        return out

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def _measured_run(
        self, queries: list[HalfPlaneQuery], batch_size: int
    ) -> ShardPartials:
        """:meth:`_run` inside the batch span, with its page delta."""
        with obs.span("batch", pager=self.index.pager,
                      index=self.index.name, queries=batch_size,
                      **_trace_meta()):
            with self.index.pager.measure() as scope:
                out = self._run(queries)
            out.io = scope.delta
        return out

    def _run(self, queries: list[HalfPlaneQuery]) -> ShardPartials:
        """The one code path that answers a batch of distinct queries."""
        out = ShardPartials(len(queries))
        # 1. Group the queries by shared work.
        exact_groups, vector_groups = group_queries(
            list(enumerate(queries)), self.index.slopes, SLOPE_TOL
        )
        out.exact_groups = len(exact_groups)
        out.vector_groups = len(vector_groups)

        # 2. One merged sweep per exact group, split per query.
        swept = []
        for group in exact_groups:
            with self._io_lock:
                leaves, parts = self.index.restricted_split(
                    group.slope_index,
                    group.query_type,
                    group.queries[0].theta,
                    [query.intercept for query in group.queries],
                )
            out.sweep_leaves += leaves
            swept.append((group, parts))

        # 3. One shared refinement fetch for every boundary candidate of
        # every exact group, each page read once and pinned meanwhile.
        records = self._fetch_boundary(
            {
                rid
                for _group, parts in swept
                for _accepted, boundary in parts
                for rid in boundary.tolist()
            },
            out,
        )

        # 4. Per query, the planners' refinement decision on exactly the
        # sequential boundary set.
        for group, parts in swept:
            for position, query, (accepted, boundary) in zip(
                group.indices, group.queries, parts
            ):
                out.candidates[position] = len(accepted) + len(boundary)
                out.accepted_without_refinement[position] = len(accepted)
                out.tids[position] = accepted
                if len(boundary):
                    out.refinement_pages_q[position] = int(
                        rid_pages(boundary).size
                    )
                    out.extras[position], out.false_hits[position] = (
                        refine_records(
                            [records[rid] for rid in boundary.tolist()], query
                        )
                    )

        # 5. Vectorized path: one dual-surface pass per distinct slope.
        for group in vector_groups:
            surface = self._surface()
            for position, query in zip(group.indices, group.queries):
                out.technique[position] = "vector"
                out.tids[position] = surface.answer_tids(
                    query.query_type,
                    query.slope_2d,
                    query.intercept,
                    query.theta,
                )
                out.candidates[position] = len(surface)
        return out

    # ------------------------------------------------------------------
    # exact groups
    # ------------------------------------------------------------------
    def _fetch_boundary(
        self, boundary_rids: set[int], out: ShardPartials
    ) -> dict[int, bytes]:
        """Fetch every boundary record of the batch, each page once,
        pinned in the buffer pool while the fetch runs."""
        if not boundary_rids:
            return {}
        pages = {unpack_rid(rid)[0] for rid in boundary_rids}
        out.refinement_pages = len(pages)
        with self._io_lock, self.index.pager.pinned(pages):
            with obs.span("fetch.batch", rids=len(boundary_rids)):
                return self.index.heap.fetch_batch(boundary_rids)

    # ------------------------------------------------------------------
    # vector path
    # ------------------------------------------------------------------
    def _surface(self) -> DualSurface:
        """The index's dual surface. Only its first use per index life
        (or restore) scans the heap; updates patch it in place."""
        with self._io_lock:
            return self.index.surface()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record_metrics(self, batch: BatchResult | ShardPartials) -> None:
        reg = self.registry
        if self._handles_generation != reg.generation:
            # Looked up by name once, again only after a reset() dropped
            # the registered metrics.
            self._handles = (
                reg.counter("exec_batches", "Batches executed"),
                reg.counter("exec_batch_queries", "Queries answered in batches"),
                reg.counter("exec_cache_hits", "Batch result-cache hits"),
                reg.counter("exec_cache_misses", "Batch result-cache misses"),
                reg.counter("exec_merged_sweeps", "Merged multi-key sweeps"),
                reg.counter(
                    "exec_vector_passes", "Vectorized dual-surface slope groups"
                ),
                reg.gauge("exec_cache_entries", "Resident cached results"),
            )
            self._handles_generation = reg.generation
        batches, queries, hits, misses, sweeps, passes, entries = self._handles
        batches.inc()
        queries.inc(len(batch))
        hits.inc(batch.cache_hits)
        misses.inc(batch.cache_misses)
        sweeps.inc(batch.exact_groups)
        passes.inc(batch.vector_groups)
        entries.set(len(self.cache))

    def __repr__(self) -> str:
        return (
            f"<BatchExecutor index={self.index.name!r} cache={self.cache!r}>"
        )


def merge_partials(parts: Sequence[ShardPartials]) -> BatchResult:
    """Assemble one :class:`BatchResult` from the partials of one or more
    runs over the same queries (one per shard of a sharded batch).

    Answers are unions and diagnostics sums: the parts cover disjoint
    tuples. Each answer stays lazy — its tid array, or one per part —
    so an :class:`~repro.core.query.AnswerSet` only exists if a caller
    reads ``ids``.
    """
    if not parts:
        return BatchResult()
    part = parts[0] if len(parts) == 1 else _combine(parts)
    results = []
    for technique, tids, extra, candidates, false_hits, accepted, pages in zip(
        part.technique,
        part.tids,
        part.extras,
        part.candidates,
        part.false_hits,
        part.accepted_without_refinement,
        part.refinement_pages_q,
    ):
        result = QueryResult(
            technique=technique,
            candidates=candidates,
            false_hits=false_hits,
            accepted_without_refinement=accepted,
            refinement_pages=pages,
        )
        result.set_lazy_ids(tids, extra)
        results.append(result)
    return BatchResult(
        results=results,
        io=part.io,
        cache_hits=part.cache_hits,
        cache_misses=part.cache_misses,
        exact_groups=part.exact_groups,
        vector_groups=part.vector_groups,
        sweep_leaves=part.sweep_leaves,
        refinement_pages=part.refinement_pages,
    )


def _combine(parts: Sequence[ShardPartials]) -> ShardPartials:
    """Several parts as one: per query, the tuple of the parts' tid
    arrays, the union of their extras and the summed counters."""

    def summed(name: str) -> list[int]:
        return [sum(v) for v in zip(*(getattr(p, name) for p in parts))]

    def total(name: str) -> int:
        return sum(getattr(p, name) for p in parts)

    out = ShardPartials()
    out.tids = list(zip(*(p.tids for p in parts)))
    out.extras = [_union(extras) for extras in zip(*(p.extras for p in parts))]
    out.technique = parts[0].technique
    out.candidates = summed("candidates")
    out.false_hits = summed("false_hits")
    out.accepted_without_refinement = summed("accepted_without_refinement")
    out.refinement_pages_q = summed("refinement_pages_q")
    out.io = sum((p.io for p in parts), IOStats())
    out.cache_hits = total("cache_hits")
    out.cache_misses = total("cache_misses")
    out.exact_groups = total("exact_groups")
    out.vector_groups = total("vector_groups")
    out.sweep_leaves = total("sweep_leaves")
    out.refinement_pages = total("refinement_pages")
    return out


def _union(extras) -> set[int] | None:
    """Union of the parts' refined extras (``None`` when all empty)."""
    union: set[int] | None = None
    for extra in extras:
        if extra:
            union = extra if union is None else union | extra
    return union


def _distinct(
    queries: list[HalfPlaneQuery],
    cache: QueryResultCache | None = None,
    version: int = 0,
) -> tuple[list[HalfPlaneQuery], list[list[int]], list[tuple[int, QueryResult]]]:
    """The batch's one dedup pass.

    Returns ``(fresh, positions, hits)``: the distinct queries to
    execute in first-occurrence order, the batch positions each one
    answers (first occurrence first) and ``(position, cached result)``
    for each query ``cache`` already holds. Later occurrences of a fresh
    query count as hits on ``cache``.
    """
    slots: dict[CacheKey, list[int]] = {}
    fresh: list[HalfPlaneQuery] = []
    hits: list[tuple[int, QueryResult]] = []
    for position, query in enumerate(queries):
        key = cache_key(query)
        at = slots.get(key)
        if at is not None:
            at.append(position)
            if cache is not None:
                cache.hits += 1
            continue
        if cache is not None:
            cached = cache.get(query, version)
            if cached is not None:
                hits.append((position, cached))
                continue
        slots[key] = [position]
        fresh.append(query)
    return fresh, list(slots.values()), hits


def _check_2d(queries: Sequence[HalfPlaneQuery]) -> None:
    for query in queries:
        if query.dimension != 2:
            raise QueryError("BatchExecutor is 2-D; use DDimPlanner")


def _clone_cached(result: QueryResult) -> QueryResult:
    """A copy of a cached result, marked as served-from-cache; it shares
    the immutable answer set.

    The I/O block is zeroed: a cache hit touches no pages.
    """
    return QueryResult(
        ids=result.ids,
        technique=result.technique,
        candidates=result.candidates,
        false_hits=result.false_hits,
        duplicates=result.duplicates,
        accepted_without_refinement=result.accepted_without_refinement,
        refinement_pages=result.refinement_pages,
        cached=True,
    )


def _trace_meta() -> dict:
    """Span meta tagging the batch with the active request's trace id
    (empty when no request context is installed — the common case)."""
    ctx = tracer.context()
    return {"trace": ctx.trace_id} if ctx is not None else {}
