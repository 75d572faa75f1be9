"""The sharded dual-transform engine.

:class:`ShardedDualIndex` hash-partitions a relation by tuple id across
N fully independent shards — each shard owns its own pager, buffer
pool, heap file, and 2k B+-tree forest (a complete
:class:`~repro.core.planner.DualIndexPlanner`). Queries fan out across
a thread pool and merge:

* **answers** — half-plane selections distribute over a disjoint
  partition of the relation, so the merged answer is the plain union of
  per-shard answer sets (no translation: shards index tuples under
  their global ids via :meth:`GeneralizedRelation.subset`);
* **accounting** — page accesses, candidates, false hits and
  refinement pages are summed across shards, so the paper's metric
  stays the total work the engine did (a shard's pages are as real as
  the single-engine pages).

Determinism: per-shard execution is exactly the unsharded engine on the
shard's sub-relation, key computation is bit-identical (see
:mod:`repro.shard.keys`), and the union of disjoint exact answer sets
is order-independent — so sharded answers are bit-identical to the
unsharded engine's for every N. Fan-out runs sequentially whenever an
:mod:`repro.obs` trace is active (the trace recorder is bound to one
pager and is not thread-safe).
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields as dataclass_fields
from pickle import PicklingError
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
        fanout: str = "thread",
    ) -> None:
        if not planners:
            raise IndexError_("ShardedDualIndex needs at least one shard")
        if fanout not in ("thread", "process"):
            raise IndexError_(f"fanout must be 'thread' or 'process', got {fanout!r}")
        self.planners = list(planners)
        self.registry = registry if registry is not None else get_registry()
        #: Batch fan-out mode. ``"process"`` forks one worker per shard
        #: (copy-on-write planners) so CPU-bound shard work actually
        #: overlaps — the GIL caps thread fan-out at 1× (see
        #: :mod:`repro.shard.procfan`). Falls back to threads when
        #: forking is unavailable or the shards are dynamic.
        self.fanout = fanout
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._executors: list[BatchExecutor] | None = None
        self._proc_pool = None
        self._proc_key: int | None = None
        self._proc_version: int | None = None
        #: One private registry per shard. Shard-local recording is
        #: thread-safe by construction (no sharing); after every query
        #: or batch the facade drains them into :attr:`registry` as
        #: ``shard_*{shard=i}`` labeled series (see
        #: :meth:`_drain_shard_metrics`).
        self._shard_registries = [MetricsRegistry() for _ in self.planners]
        # Shard-internal planners stay out of the slope log: every shard
        # sees the same broadcast stream, so the facade records each
        # logical query exactly once (identically for thread and process
        # fan-out, whose workers could not drain a forked log back).
        for p in self.planners:
            p.slope_logging = False

    # ------------------------------------------------------------------
    # durability (see repro.storage.checkpoint and docs/STORAGE.md)
    # ------------------------------------------------------------------
    def save(self, data_dir: str) -> None:
        """Persist every shard (``shard-N/`` subdirectories) plus a
        manifest catalog naming the shard count and fan-out mode."""
        from repro.storage.checkpoint import save_sharded

        save_sharded(self, data_dir)

    @classmethod
    def open(
        cls,
        data_dir: str,
        fanout: str | None = None,
    ) -> "ShardedDualIndex":
        """Open a saved sharded engine from its manifest."""
        from repro.storage.checkpoint import open_sharded

        return open_sharded(data_dir, fanout=fanout)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: GeneralizedRelation,
        slopes: SlopeSet | Iterable[float],
        shards: int = 2,
        workers: int = 0,
        key_bytes: int = 4,
        technique: str = "T2",
        fill: float = 0.9,
        pivot_x: float = 0.0,
        pager_factory: Callable[[int], Pager] | None = None,
        registry: MetricsRegistry | None = None,
        fanout: str = "thread",
    ) -> "ShardedDualIndex":
        """Partition ``relation`` into ``shards`` sub-relations by tuple
        id and build one full planner per shard (each with its own
        pager unless ``pager_factory`` supplies them). ``workers`` is
        forwarded to every shard's parallel build path.
        """
        if shards < 1:
            raise IndexError_("shards must be >= 1")
        slope_set = slopes if isinstance(slopes, SlopeSet) else SlopeSet(slopes)
        parts: list[list[int]] = [[] for _ in range(shards)]
        for tid, _t in relation:
            parts[shard_of(tid, shards)].append(tid)
        planners = []
        with obs.span("build.sharded", shards=shards, workers=workers):
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
                        workers=workers,
                        name=f"shard{n}",
                    )
                )
        return cls(planners, registry=registry, fanout=fanout)

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
        """Fan one query out to every shard and merge (union of ids,
        summed accounting). The answer is bit-identical to the
        unsharded planner's on the same relation."""
        slopelog.record(query.slope_2d, query.query_type)
        with obs.span("shard.fanout", shards=self.shards,
                      type=query.query_type, **_trace_meta()):
            obs.incr("shard_fanout.queries")
            partials = self._fanout(
                lambda p: p.query(query, refresh=refresh)
            )
        self._record_partials(partials)
        self._drain_shard_metrics()
        return _merge_query_results(partials)

    def query_batch(self, queries: Sequence[HalfPlaneQuery]) -> BatchResult:
        """Fan a whole batch out to per-shard batch executors and merge
        per-position results plus batch-scope accounting."""
        queries = list(queries)
        for q in queries:
            slopelog.record(q.slope_2d, q.query_type)
        if (
            self.fanout == "process"
            and self.shards > 1
            and obs.current() is None
            and not any(p.index.dynamic for p in self.planners)
        ):
            merged = self._query_batch_processes(queries)
            if merged is not None:
                return merged
        with obs.span("shard.fanout_batch", shards=self.shards,
                      queries=len(queries), **_trace_meta()):
            obs.incr("shard_fanout.batches")
            obs.incr("shard_fanout.queries", len(queries))
            parts = self._fanout_executors(queries)
        merged = BatchResult(results=[])
        for position in range(len(queries)):
            merged.results.append(
                _merge_query_results([p.results[position] for p in parts])
            )
        for part in parts:
            _add_io(merged.io, part.io)
            merged.cache_hits += part.cache_hits
            merged.cache_misses += part.cache_misses
            merged.exact_groups += part.exact_groups
            merged.vector_groups += part.vector_groups
            merged.sweep_leaves += part.sweep_leaves
            merged.refinement_pages += part.refinement_pages
        self.registry.counter(
            "shard_fanout_batches", "Batches fanned out across shards"
        ).inc()
        self.registry.counter(
            "shard_fanout_queries", "Queries answered by shard fan-out"
        ).inc(len(queries) * self.shards)
        for i, part in enumerate(parts):
            self._record_shard_work(
                i, part.page_accesses,
                sum(res.answer_count for res in part.results),
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
    # process fan-out (fork + copy-on-write shards)
    # ------------------------------------------------------------------
    def _query_batch_processes(
        self, queries: list[HalfPlaneQuery]
    ) -> BatchResult | None:
        """Ship the batch to one forked worker per shard; ``None`` means
        process fan-out is unavailable (caller falls back to threads)."""
        from repro.shard import procfan

        pool = self._process_pool()
        if pool is None:
            return None
        # The forked workers cannot see this process's request-context
        # global, so the active trace context (if any) crosses the
        # boundary as an explicit payload and each worker re-installs it.
        trace_payload = tracer.payload()
        try:
            futures = [
                pool.submit(procfan.worker_batch, self._proc_key, n, queries,
                            trace_payload)
                for n in range(self.shards)
            ]
            parts = [f.result() for f in futures]
        except (OSError, BrokenProcessPool, PicklingError):
            # A worker died (or the payload would not cross the process
            # boundary): permanently drop to the threaded fan-out.
            self._shutdown_process_pool()
            self.fanout = "thread"
            return None
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
                i,
                part.io.logical_reads + part.io.logical_writes,
                answers,
            )
        self._drain_shard_metrics()
        return merged

    def _process_pool(self):
        """The forked worker pool for the current index version (re-forked
        after any shard mutation so workers see current state)."""
        from repro.shard import procfan

        version = self.version
        if self._proc_pool is not None and self._proc_version == version:
            return self._proc_pool
        self._shutdown_process_pool()
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            self.fanout = "thread"
            return None
        self._proc_key = procfan.register(self.planners)
        try:
            pool = ProcessPoolExecutor(
                max_workers=self.shards, mp_context=context
            )
            # Force the fork now, while the registration is current.
            for _ in pool.map(_noop, range(self.shards)):
                pass
        except (OSError, BrokenProcessPool):  # pragma: no cover - no fork
            procfan.unregister(self._proc_key)
            self._proc_key = None
            self.fanout = "thread"
            return None
        self._proc_pool = pool
        self._proc_version = version
        return pool

    def _shutdown_process_pool(self) -> None:
        from repro.shard import procfan

        if self._proc_pool is not None:
            self._proc_pool.shutdown(wait=False, cancel_futures=True)
            self._proc_pool = None
        if self._proc_key is not None:
            procfan.unregister(self._proc_key)
            self._proc_key = None
        self._proc_version = None

    # ------------------------------------------------------------------
    # fan-out machinery
    # ------------------------------------------------------------------
    def _fanout(self, fn):
        """Apply ``fn`` to every shard planner, threaded when safe.

        Sequential when a trace is active (the recorder binds one pager
        and is not thread-safe) or with a single shard.
        """
        if self.shards == 1 or obs.current() is not None:
            return [fn(p) for p in self.planners]
        return list(self._thread_pool().map(fn, self.planners))

    def _fanout_executors(self, queries) -> list[BatchResult]:
        executors = self._shard_executors()
        if self.shards == 1 or obs.current() is not None:
            return [ex.execute(queries) for ex in executors]
        return list(
            self._thread_pool().map(lambda ex: ex.execute(queries), executors)
        )

    def _shard_executors(self) -> list[BatchExecutor]:
        if self._executors is None:
            self._executors = [
                BatchExecutor(p, registry=reg)
                for p, reg in zip(self.planners, self._shard_registries)
            ]
        return self._executors

    # ------------------------------------------------------------------
    # per-shard metric aggregation
    # ------------------------------------------------------------------
    def _record_partials(self, partials: Sequence[QueryResult]) -> None:
        """Record one fan-out's per-shard work (``partials`` is aligned
        with :attr:`planners`) into the shard-local registries."""
        for i, part in enumerate(partials):
            self._record_shard_work(i, part.page_accesses, part.answer_count)

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

    def _thread_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.shards, thread_name_prefix="shard"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the fan-out pools (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._shutdown_process_pool()

    def __repr__(self) -> str:
        return (
            f"<ShardedDualIndex shards={self.shards} size={self.size} "
            f"slopes={len(self.planners[0].index.slopes)}>"
        )


def _noop(_n: int) -> None:
    """Worker warm-up task; its only job is to force the fork."""
    return None


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
    candidates = sum(p.candidates for p in parts)
    false_hits = sum(p.false_hits for p in parts)
    accepted = sum(p.accepted_without_refinement for p in parts)
    refinement_q = sum(p.refinement_pages_q for p in parts)
    technique = parts[0].technique
    for j in range(n_queries):
        result = QueryResult(technique=TECH_NAMES[technique[j]])
        extra: set[int] | None = None
        for p in parts:
            part_extra = p.extras[j]
            if part_extra:
                extra = set(part_extra) if extra is None else extra | part_extra
        result.set_lazy_ids([p.tid_column(j) for p in parts], extra)
        result.candidates = int(candidates[j])
        result.false_hits = int(false_hits[j])
        result.accepted_without_refinement = int(accepted[j])
        result.refinement_pages = int(refinement_q[j])
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
