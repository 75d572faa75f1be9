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
batch; neither beats the plain loop. A batch runs each shard's
cache-less batch pipeline
(:meth:`repro.exec.BatchExecutor.execute_partials`), and
:func:`repro.exec.merge_partials` — the same assembler the unsharded
:meth:`~repro.exec.BatchExecutor.execute` uses — turns the shards'
:class:`~repro.exec.partials.ShardPartials` into one
:class:`~repro.exec.BatchResult`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.core.dual_index import IndexSpace
from repro.core.planner import DualIndexPlanner
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.core.slope_set import SlopeSet
from repro.errors import IndexError_
from repro.exec.executor import BatchExecutor, BatchResult, merge_partials
from repro.obs import trace as obs
from repro.obs import slopelog
from repro.obs import tracer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.pager import Pager
from repro.storage.stats import IOStats


def shard_of(tid: int, shards: int) -> int:
    """The shard owning tuple ``tid`` (hash partition by id)."""
    return tid % shards


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
        # One cache-less executor per shard: the partials path never
        # reads a result cache.
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
        tree = directory = heap = summary = 0
        for p in self.planners:
            s = p.index.space()
            tree += s.tree_pages
            directory += s.directory_pages
            heap += s.heap_pages
            summary += s.summary_pages
        return IndexSpace(tree, directory, heap, summary)

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
        """Answer a batch on every shard's partials path in turn and
        merge the per-query answers plus batch-scope accounting."""
        queries = list(queries)
        for q in queries:
            slopelog.record(q.slope_2d, q.query_type)
        with obs.span("shard.fanout_batch", shards=self.shards,
                      queries=len(queries), **_trace_meta()):
            obs.incr("shard_fanout.batches")
            obs.incr("shard_fanout.queries", len(queries))
            parts = [ex.execute_partials(queries) for ex in self._executors]
        merged = merge_partials(parts)
        self.registry.counter(
            "shard_fanout_batches", "Batches fanned out across shards"
        ).inc()
        self.registry.counter(
            "shard_fanout_queries", "Queries answered by shard fan-out"
        ).inc(len(queries) * self.shards)
        for i, part in enumerate(parts):
            self._record_shard_work(i, part.io.page_accesses, part.answers)
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


def _merge_query_results(partials: Sequence[QueryResult]) -> QueryResult:
    """Union the answer sets of disjoint shards; sum the diagnostics."""
    merged = QueryResult(technique=partials[0].technique)
    merged.cached = all(p.cached for p in partials)
    for part in partials:
        merged.ids |= part.ids
        merged.candidates += part.candidates
        merged.false_hits += part.false_hits
        merged.duplicates += part.duplicates
        merged.accepted_without_refinement += part.accepted_without_refinement
        merged.refinement_pages += part.refinement_pages
        merged.summary_pages += part.summary_pages
    merged.io = sum((part.io for part in partials), IOStats())
    return merged
