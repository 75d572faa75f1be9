"""The sharded dual-transform engine.

:class:`ShardedDualIndex` hash-partitions a relation by tuple id across
N fully independent shards — each shard owns its own pager, buffer
pool, heap file, and 2k B+-tree forest (a complete
:class:`~repro.core.planner.DualIndexPlanner`). A query or batch runs
on each shard in turn and the per-shard results merge:

* **answers** — half-plane selections distribute over a disjoint
  partition of the relation, so the merged answer is the plain union of
  per-shard answer sets (no translation: shards index tuples under
  their global ids via :meth:`GeneralizedRelation.subset`);
* **accounting** — page accesses, candidates, false hits and
  refinement pages are summed across shards, so the paper's metric
  stays the total work the engine did (a shard's pages are as real as
  the single-engine pages).

Determinism: per-shard execution is exactly the unsharded engine on the
shard's sub-relation, a tuple's keys depend only on its own geometry,
and the union of disjoint exact answer sets is order-independent — so
sharded answers are bit-identical to the unsharded engine's for every N.

Shards run one after another on the calling thread. The per-shard work
is CPU-bound Python and numpy, so threads under the interpreter lock
only interleave it, and forked workers pay pickling and IPC on every
batch; neither beats the plain loop. A batch goes through each shard's
lean columnar path (:meth:`repro.exec.BatchExecutor.execute_partials`)
and :func:`_merge_partials` assembles the columns into one
:class:`~repro.exec.BatchResult`.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.core.dual_index import IndexSpace
from repro.core.planner import DualIndexPlanner
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.core.slope_set import SlopeSet
from repro.errors import IndexError_
from repro.exec.executor import BatchExecutor, BatchResult
from repro.obs import trace as obs
from repro.obs import slopelog
from repro.obs import tracer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.pager import Pager
from repro.storage.stats import IOStats


def shard_of(tid: int, shards: int) -> int:
    """The shard owning tuple ``tid`` (hash partition by id)."""
    return tid % shards


def _add_io(total: IOStats, part: IOStats) -> None:
    for f in dataclass_fields(IOStats):
        setattr(total, f.name, getattr(total, f.name) + getattr(part, f.name))


class ShardedDualIndex:
    """N independent dual-index shards behind one planner-like facade.

    Construct with :meth:`build`; the query surface mirrors
    :class:`DualIndexPlanner` (``query`` / ``query_batch`` / ``exist`` /
    ``all``), so callers — the CLI, benchmarks, the differential
    verifier — can swap engines freely.

    Example::

        >>> from repro import GeneralizedRelation, parse_tuple
        >>> from repro.shard import ShardedDualIndex
        >>> r = GeneralizedRelation([
        ...     parse_tuple("y >= x and y <= 4 and x >= 0"),
        ...     parse_tuple("y <= 1 and y >= 0 and x >= 0 and x <= 1"),
        ... ])
        >>> engine = ShardedDualIndex.build(r, slopes=[-1.0, 0.0, 1.0],
        ...                                 shards=2)
        >>> res = engine.exist(0.0, 2.0, ">=")
        >>> sorted(res.ids)
        [0]
    """

    def __init__(
        self,
        planners: Sequence[DualIndexPlanner],
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not planners:
            raise IndexError_("ShardedDualIndex needs at least one shard")
        self.planners = list(planners)
        self.registry = registry if registry is not None else get_registry()
        #: One private registry per shard; after every query or batch
        #: the facade drains them into :attr:`registry` as
        #: ``shard_*{shard=i}`` labeled series (see
        #: :meth:`_drain_shard_metrics`).
        self._shard_registries = [MetricsRegistry() for _ in self.planners]
        # One cache-less executor per shard: the columnar partials path
        # never reads a result cache.
        self._executors = [
            BatchExecutor(p, cache_size=0, registry=reg)
            for p, reg in zip(self.planners, self._shard_registries)
        ]
        # Shard-internal planners stay out of the slope log: every shard
        # sees the same broadcast stream, so the facade records each
        # logical query exactly once.
        for p in self.planners:
            p.slope_logging = False

    # ------------------------------------------------------------------
    # durability (see repro.storage.checkpoint and docs/STORAGE.md)
    # ------------------------------------------------------------------
    def save(self, data_dir: str) -> None:
        """Persist every shard (``shard-N/`` subdirectories) plus a
        manifest catalog naming the shard count."""
        from repro.storage.checkpoint import save_sharded

        save_sharded(self, data_dir)

    @classmethod
    def open(cls, data_dir: str) -> "ShardedDualIndex":
        """Open a saved sharded engine from its manifest."""
        from repro.storage.checkpoint import open_sharded

        return open_sharded(data_dir)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        slopes: SlopeSet | Iterable[float],
        shards: int = 2,
        key_bytes: int = 4,
        technique: str = "T2",
        fill: float = 0.9,
        pivot_x: float = 0.0,
        pager_factory: Callable[[int], Pager] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "ShardedDualIndex":
        """Partition ``relation`` into ``shards`` sub-relations by tuple
        id and build one full planner per shard (each with its own
        pager unless ``pager_factory`` supplies them).
        """
        if shards < 1:
            raise IndexError_("shards must be >= 1")
        slope_set = slopes if isinstance(slopes, SlopeSet) else SlopeSet(slopes)
        parts: list[list[int]] = [[] for _ in range(shards)]
        for tid, _t in relation:
            parts[shard_of(tid, shards)].append(tid)
        planners = []
        with obs.span("build.sharded", shards=shards):
            for n, ids in enumerate(parts):
                sub = relation.subset(ids, name=f"{relation.name}[{n}]")
                pager = pager_factory(n) if pager_factory is not None else None
                planners.append(
                    DualIndexPlanner.build(
                        sub,
                        slope_set,
                        pager=pager,
                        key_bytes=key_bytes,
                        technique=technique,
                        fill=fill,
                        pivot_x=pivot_x,
                        name=f"shard{n}",
                    )
                )
        return cls(planners, registry=registry)

    # ------------------------------------------------------------------
    # facade properties
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.planners)

    @property
    def size(self) -> int:
        """Indexed tuples across all shards."""
        return sum(p.index.size for p in self.planners)

    @property
    def skipped(self) -> list[int]:
        """Unsatisfiable tuple ids skipped at build, across all shards."""
        out: list[int] = []
        for p in self.planners:
            out.extend(p.index.skipped)
        return sorted(out)

    @property
    def version(self) -> int:
        """Aggregate structure version (sum of shard versions): any
        shard mutation changes it, so caches keyed on it invalidate."""
        return sum(p.index.version for p in self.planners)

    def space(self) -> IndexSpace:
        """Summed page breakdown across all shards."""
        tree = directory = heap = 0
        for p in self.planners:
            s = p.index.space()
            tree += s.tree_pages
            directory += s.directory_pages
            heap += s.heap_pages
        return IndexSpace(tree, directory, heap)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: HalfPlaneQuery, refresh: bool = True) -> QueryResult:
        """Run one query on every shard in turn and merge (union of ids,
        summed accounting). The answer is bit-identical to the
        unsharded planner's on the same relation."""
        slopelog.record(query.slope_2d, query.query_type)
        with obs.span("shard.fanout", shards=self.shards,
                      type=query.query_type, **_trace_meta()):
            obs.incr("shard_fanout.queries")
            partials = [p.query(query, refresh=refresh) for p in self.planners]
        for i, part in enumerate(partials):
            self._record_shard_work(i, part.page_accesses, part.answer_count)
        self._drain_shard_metrics()
        return _merge_query_results(partials)

    def query_batch(self, queries: Sequence[HalfPlaneQuery]) -> BatchResult:
        """Answer a batch on every shard's columnar partials path in
        turn and merge the columns plus batch-scope accounting."""
        queries = list(queries)
        for q in queries:
            slopelog.record(q.slope_2d, q.query_type)
        with obs.span("shard.fanout_batch", shards=self.shards,
                      queries=len(queries), **_trace_meta()):
            obs.incr("shard_fanout.batches")
            obs.incr("shard_fanout.queries", len(queries))
            parts = [ex.execute_partials(queries) for ex in self._executors]
        merged = _merge_partials(parts, len(queries))
        self.registry.counter(
            "shard_fanout_batches", "Batches fanned out across shards"
        ).inc()
        self.registry.counter(
            "shard_fanout_queries", "Queries answered by shard fan-out"
        ).inc(len(queries) * self.shards)
        for i, part in enumerate(parts):
            answers = int(part.offsets[-1]) + sum(
                len(e) for e in part.extras if e
            )
            self._record_shard_work(
                i, part.io.logical_reads + part.io.logical_writes, answers
            )
        self._drain_shard_metrics()
        return merged

    def exist(
        self, slope: float, intercept: float, theta: Theta | str = ">="
    ) -> QueryResult:
        """EXIST selection across all shards."""
        return self.query(HalfPlaneQuery(EXIST, slope, intercept, theta))

    def all(
        self, slope: float, intercept: float, theta: Theta | str = ">="
    ) -> QueryResult:
        """ALL selection across all shards."""
        return self.query(HalfPlaneQuery(ALL, slope, intercept, theta))

    # ------------------------------------------------------------------
    # updates (routed to the owning shard)
    # ------------------------------------------------------------------
    def insert(self, tid: int, t: GeneralizedTuple) -> None:
        """Insert into the shard owning ``tid`` (dynamic shards only)."""
        self.planners[shard_of(tid, self.shards)].insert(tid, t)

    def delete(self, tid: int) -> None:
        """Delete from the shard owning ``tid`` (dynamic shards only)."""
        self.planners[shard_of(tid, self.shards)].delete(tid)

    # ------------------------------------------------------------------
    # per-shard metric aggregation
    # ------------------------------------------------------------------
    def _record_shard_work(self, shard: int, pages: int, results: int) -> None:
        reg = self._shard_registries[shard]
        reg.counter("pages", "Page accesses on this shard").inc(pages)
        reg.counter("results", "Answer tuples from this shard").inc(results)

    def _drain_shard_metrics(self) -> None:
        """Merge shard-local registries into the facade's registry.

        Each shard's families are drained (snapshot + reset), prefixed
        with ``shard_`` and labeled ``shard=i`` — so the executor's
        ``exec_batches`` surfaces as ``shard_exec_batches{shard=i}`` and
        the facade's own recording as ``shard_pages{shard=i}`` /
        ``shard_results{shard=i}``. The prefix keeps relabeled families
        from colliding with the identically named unlabeled globals
        under the registry's strict registration rules.
        """
        for i, reg in enumerate(self._shard_registries):
            snap = reg.snapshot()
            if not snap.families:
                continue
            reg.reset()
            self.registry.absorb(
                snap.with_labels(prefix="shard_", shard=str(i))
            )

    def close(self) -> None:
        """Release engine resources. Shards hold no pool or worker, so
        this is a no-op kept for callers that close every engine."""

    def __repr__(self) -> str:
        return (
            f"<ShardedDualIndex shards={self.shards} size={self.size} "
            f"slopes={len(self.planners[0].index.slopes)}>"
        )


def _trace_meta() -> dict:
    """Span meta carrying the active request trace id (usually empty)."""
    ctx = tracer.context()
    return {"trace": ctx.trace_id} if ctx is not None else {}


def _merge_partials(parts, n_queries: int) -> BatchResult:
    """Assemble the facade's :class:`BatchResult` from per-shard
    :class:`~repro.exec.partials.ShardPartials` columns.

    Per-query answer sets stay lazy: each merged result holds one
    zero-copy tid-column view per shard (disjoint by construction), so
    the merge is O(shards) slicing per query — no set unions, no
    concatenations — and a Python set only exists if a caller reads
    ``ids``.
    """
    from repro.exec.partials import TECH_NAMES

    merged = BatchResult(results=[None] * n_queries)  # type: ignore[list-item]
    if not parts:
        return merged
    # Convert to Python ints once: indexing numpy arrays per query took
    # over a third of the merge.
    candidates = sum(p.candidates for p in parts).tolist()
    false_hits = sum(p.false_hits for p in parts).tolist()
    accepted = sum(p.accepted_without_refinement for p in parts).tolist()
    refinement_q = sum(p.refinement_pages_q for p in parts).tolist()
    technique = parts[0].technique.tolist()
    views = []
    for p in parts:
        offsets = p.offsets.tolist()
        views.append([p.tids[a:b] for a, b in zip(offsets, offsets[1:])])
    per_query = zip(zip(*views), zip(*(p.extras for p in parts)))
    for j, (columns, extras) in enumerate(per_query):
        result = QueryResult(technique=TECH_NAMES[technique[j]])
        extra: set[int] | None = None
        for part_extra in extras:
            if part_extra:
                extra = set(part_extra) if extra is None else extra | part_extra
        result.set_lazy_ids(list(columns), extra)
        result.candidates = candidates[j]
        result.false_hits = false_hits[j]
        result.accepted_without_refinement = accepted[j]
        result.refinement_pages = refinement_q[j]
        merged.results[j] = result
    for p in parts:
        _add_io(merged.io, p.io)
        merged.cache_hits += p.cache_hits
        merged.cache_misses += p.cache_misses
        merged.exact_groups += p.exact_groups
        merged.vector_groups += p.vector_groups
        merged.sweep_leaves += p.sweep_leaves
        merged.refinement_pages += p.refinement_pages
    return merged


def _merge_query_results(partials: Sequence[QueryResult]) -> QueryResult:
    """Union the answer sets of disjoint shards; sum the diagnostics.

    When every partial still holds its answer as lazy tid columns (the
    columnar batch path), the merge stays columnar: shard answers are
    disjoint, so the union is one array concatenation and the merged
    result materialises a Python set only if a caller reads ``ids``.
    """
    merged = QueryResult(technique=partials[0].technique)
    merged.cached = all(p.cached for p in partials)
    columns = [part.lazy_id_columns() for part in partials]
    if all(cols is not None for cols in columns):
        arrays = [tids for tids, _extra in columns]
        extra: set[int] = set()
        for _tids, part_extra in columns:
            if part_extra:
                extra |= part_extra
        merged.set_lazy_ids(
            arrays[0] if len(arrays) == 1 else np.concatenate(arrays),
            extra or None,
        )
    else:
        for part in partials:
            merged.ids |= part.ids
    for part in partials:
        merged.candidates += part.candidates
        merged.false_hits += part.false_hits
        merged.duplicates += part.duplicates
        merged.accepted_without_refinement += part.accepted_without_refinement
        merged.refinement_pages += part.refinement_pages
        _add_io(merged.io, part.io)
    return merged
