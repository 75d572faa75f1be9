"""Asyncio query server over a shared read-mostly engine.

One :class:`ReproServer` owns one engine (planner or sharded, opened
from a ``--data-dir`` catalog via
:func:`repro.storage.checkpoint.open_engine`) and serves it over the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`.

Concurrency model: the engine is **not** thread-safe, so every engine
touch — query batches, mutations, reloads, checkpoints — runs on a
single dedicated executor thread. The asyncio side never blocks on the
engine; it parks queries in a :class:`~repro.serve.coalesce.Coalescer`
whose flushes become single ``query_batch`` calls on that thread. The
serialization doubles as drain correctness: a reload queued behind
in-flight batches cannot observe or interrupt them.

Admission control is a bounded in-flight count: past
``max_queue_depth``, new requests are answered immediately with a typed
``OVERLOADED`` error frame (never silently dropped) so clients back
off. SIGHUP (or a ``reload`` request) reopens the engine from the data
directory and swaps it atomically between batches. After every
mutation the server checks the WAL size and, past
``wal_checkpoint_bytes``, folds the log into the page file via
:func:`repro.storage.checkpoint.maybe_checkpoint` — closing the loop
left open by ``commit_planner``'s grow-forever log.

Observability: ``serve_*`` metrics in the process registry (exported
from the sidecar HTTP ``/metrics`` endpoint in Prometheus text form;
reloads, auto-checkpoints and tune swaps each have a counter), and a
span per request when tracing is active. With ``trace_sample`` >= 1 every
request additionally gets a request-scoped trace id (adopted from the
wire ``trace`` field or minted), every Nth query batch records a full
span tree, per-request page attribution feeds a cost watchdog scoring
actual pages against the paper's distance-based prediction
(:class:`repro.tune.cost.PageCostModel` — Theorems 4.1/4.2 as a live
SLO), and the worst requests land in a
:class:`~repro.obs.slowlog.SlowQueryLog` replayable via ``repro
slowlog --replay``. The sidecar serves the live log at ``/slowlog``
and ``/healthz`` reports WAL size and checkpoint lag.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import json
import signal
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    FrameTooLargeError,
    ProtocolError,
    QueryError,
    ReproError,
)
from repro.obs import slopelog, tracer
from repro.obs import trace as obs
from repro.obs.metrics import get_registry
from repro.obs.slowlog import SlowLogEntry, SlowQueryLog, answer_digest, \
    slope_set_hash
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (
    MAX_FRAME,
    FrameDecoder,
    encode_frame,
    error_response,
    query_from_request,
    validate_request,
)
from repro.storage.checkpoint import (
    maybe_checkpoint,
    open_engine,
    read_catalog,
    wal_size,
)
from repro.tune.cost import PageCostModel

#: Latency-scale histogram buckets (seconds).
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
#: Coalesced batch-size buckets.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Per-request attributed-pages buckets.
_PAGE_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Actual/predicted cost-ratio buckets, centered on 1.0 (a perfect
#: model); the watchdog budget usually sits around 4.
_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0)
#: Deferred-observation queue cap: past this the bookkeeping (never the
#: request) is shed, so a stalled loop can't grow memory unboundedly.
_OBS_PENDING_MAX = 4096

#: Lazy :func:`repro.verify.differential.query_to_json` (import cycle:
#: the fuzzer imports the serve layer).
_query_to_json = None


@dataclass
class ServeConfig:
    """Tunables for :class:`ReproServer`.

    ``data_dir`` is the saved engine to open (and the target of reloads
    and auto-checkpoints). ``port``/``metrics_port`` of 0 bind an
    ephemeral port (read the bound one back from ``server.port``).
    """

    data_dir: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = None
    #: Coalescing: flush at this many queries or after this many seconds.
    max_batch: int = 64
    max_delay: float = 0.002
    #: Admission control: in-flight requests beyond this get OVERLOADED.
    max_queue_depth: int = 256
    max_frame: int = MAX_FRAME
    #: Seconds a partially received frame may stall before the
    #: connection is dropped (slow-loris defense). Idle connections on a
    #: frame boundary are not timed out.
    read_timeout: float = 5.0
    #: WAL size that triggers an automatic checkpoint after a mutation.
    wal_checkpoint_bytes: int = 4 << 20
    #: Online slope-set tuning (``--auto-tune``): periodically learn a
    #: slope set from the served traffic's slope log and, when the cost
    #: model predicts a real win, rebuild on a background thread and
    #: hot-swap behind the engine-thread drain. The ``tune`` op works
    #: regardless; this flag only enables the periodic loop.
    auto_tune: bool = False
    #: Seconds between auto-tune checks.
    tune_interval: float = 5.0
    #: Minimum logged queries before a tune decision is attempted.
    tune_min_evidence: int = 64
    #: Slope-log reservoir capacity.
    tune_capacity: int = 4096
    #: Request tracing (``--trace-sample``): 0 disables tracing entirely
    #: — the request path is bit-identical to a pre-tracing server. Any
    #: N >= 1 turns tracing on: every request gets a trace id, the cost
    #: watchdog and slow-query log run, and every Nth request records a
    #: full span tree (1 = every request).
    trace_sample: int = 0
    #: Slow-query log: worst-N capacity per ranking (latency / pages).
    slowlog_capacity: int = 32
    #: Written as JSONL on shutdown when set (the CI artifact).
    slowlog_out: str | None = None
    #: The most recent sampled span tree, written as JSON on shutdown.
    trace_out: str | None = None
    #: Cost watchdog: a request whose actual/predicted page ratio
    #: exceeds this budget raises ``cost_model_violations`` and is
    #: force-kept in the slow-query log.
    cost_budget: float = 4.0


class ReproServer:
    """The asyncio front door. See the module docstring for the model.

    Typical embedded use (tests, the differential fuzzer)::

        server = ReproServer(ServeConfig(data_dir=...))
        await server.start()
        ...
        await server.stop()

    The CLI wraps this in :func:`serve_until_interrupted`.
    """

    def __init__(self, config: ServeConfig, engine=None) -> None:
        self.config = config
        self._engine = engine
        self._owns_engine = engine is None
        if engine is None and not config.data_dir:
            raise ValueError("ServeConfig.data_dir or an engine is required")
        self._exec = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine")
        self._server: asyncio.base_events.Server | None = None
        self._metrics_server: asyncio.base_events.Server | None = None
        self._coalescer: Coalescer | None = None
        self._inflight = 0
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        #: Traffic slope log feeding ``tune`` / auto-tune decisions.
        self._slope_log = slopelog.SlopeLog(capacity=config.tune_capacity)
        self._prev_slope_log: slopelog.SlopeLog | None = None
        #: Bumped on the engine thread per mutation; a tune rebuild that
        #: raced a mutation is detected and discarded at swap time.
        self._mutation_seq = 0
        self._tune_seq = 0
        self._tune_task: asyncio.Task | None = None
        registry = get_registry()
        self._c_requests = registry.counter(
            "serve_requests", "Requests received", labelnames=("op",))
        self._c_errors = registry.counter(
            "serve_errors", "Error responses sent", labelnames=("code",))
        self._c_batches = registry.counter(
            "serve_batches", "Coalesced batches executed")
        self._c_reloads = registry.counter(
            "serve_reloads", "Engine reloads (SIGHUP or reload op)")
        self._c_checkpoints = registry.counter(
            "serve_autocheckpoints",
            "Automatic WAL-threshold checkpoints")
        self._c_timeouts = registry.counter(
            "serve_timeouts", "Connections dropped on read timeout")
        self._c_tune_swaps = registry.counter(
            "tune_swaps",
            "Engines hot-swapped to a learned slope set while serving")
        self._c_tune_skips = registry.counter(
            "tune_skipped",
            "Tune checks that declined to rebuild",
            labelnames=("reason",))
        self._c_disconnects = registry.counter(
            "serve_disconnects", "Connections that ended mid-frame")
        self._g_inflight = registry.gauge(
            "serve_inflight", "Requests admitted and not yet answered")
        self._g_depth = registry.gauge(
            "serve_queue_depth", "Queries parked in the coalescing buffer")
        self._g_connections = registry.gauge(
            "serve_connections", "Open client connections")
        self._h_batch = registry.histogram(
            "serve_batch_size", "Queries per coalesced batch",
            buckets=_BATCH_BUCKETS)
        self._h_latency = registry.histogram(
            "serve_request_seconds", "Per-request wall time",
            labelnames=("op",), buckets=_LATENCY_BUCKETS)
        self._g_wal = registry.gauge(
            "serve_wal_bytes",
            "WAL bytes pending behind the served engine")
        self._g_ckpt_lag = registry.gauge(
            "serve_checkpoint_lag_bytes",
            "WAL bytes past the auto-checkpoint threshold "
            "(0 = checkpointing keeps up)")
        #: Tracing plumbing (None/off unless ``trace_sample`` >= 1, so
        #: the untraced request path stays bit-identical).
        self._tracer: tracer.RequestTracer | None = None
        self._slowlog: SlowQueryLog | None = None
        self._cost_model: PageCostModel | None = None
        self._engine_meta: dict = {}
        self._last_trace: dict | None = None
        #: Traced-request bookkeeping queue: the request path appends a
        #: tuple and answers; histograms / watchdog / slow-log work
        #: drains during loop idle (see :meth:`_queue_observation`).
        self._obs_pending: collections.deque = collections.deque()
        self._obs_scheduled = False
        #: Serializes drains: the loop drains during idle, but readers
        #: (the ``slowlog`` property, artifact writes) may flush from
        #: another thread, and the cost model is not itself locked.
        self._obs_lock = threading.Lock()
        if config.trace_sample:
            self._tracer = tracer.RequestTracer(
                sample_every=config.trace_sample)
            self._slowlog = SlowQueryLog(capacity=config.slowlog_capacity)
            self._c_traced = registry.counter(
                "serve_traced_requests",
                "Requests carrying a trace context")
            self._c_violations = registry.counter(
                "cost_model_violations",
                "Traced queries whose actual/predicted page ratio "
                "exceeded the cost budget")
            self._h_pages = registry.histogram(
                "serve_request_pages",
                "Pages attributed to one traced query (shared batch "
                "work split evenly, refinement per-query)",
                buckets=_PAGE_BUCKETS)
            self._h_cost_ratio = registry.histogram(
                "serve_cost_ratio",
                "Actual/predicted pages per traced query (the paper's "
                "cost model as a live SLO)",
                buckets=_RATIO_BUCKETS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound query port (resolves an ephemeral config port)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def engine(self):
        """The currently served engine (swapped by reload)."""
        return self._engine

    async def start(self) -> None:
        """Open the engine (if not injected) and start listening."""
        loop = asyncio.get_running_loop()
        if self._engine is None:
            self._engine = await loop.run_in_executor(
                self._exec, self._open_engine)
        self._note_engine_swap()
        self._coalescer = Coalescer(
            self._execute_batch,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay,
            on_flush=self._note_flush,
        )
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.config.host,
                self.config.metrics_port)
        try:
            loop.add_signal_handler(
                signal.SIGHUP, lambda: loop.create_task(self.reload()))
        except (NotImplementedError, RuntimeError, ValueError):
            # Non-main thread (embedded/test servers) or platforms
            # without signal support: reload stays available as an op.
            pass
        # Record served query slopes for the tune op; the hook costs one
        # global load per query, and the log is bounded.
        self._prev_slope_log = slopelog.install(self._slope_log)
        if self.config.auto_tune:
            self._tune_task = loop.create_task(self._auto_tune_loop())

    def _open_engine(self):
        return open_engine(self.config.data_dir)

    def _note_engine_swap(self) -> None:
        """Refresh what slow-log entries record about engine identity
        (and re-anchor the cost model) after the engine changes.

        Called on start, after a reload, after a tune hot-swap, and
        after mutations (a commit/auto-checkpoint moves the catalog's
        commit seq / generation). Cheap: one attribute walk plus, for
        durable engines, one small catalog read.
        """
        engine = self._engine
        planner = engine.planners[0] if hasattr(engine, "planners") \
            else engine
        meta: dict = {
            "version": planner.index.version,
            "slope_hash": slope_set_hash(planner.index.slopes),
        }
        if self.config.data_dir:
            meta["data_dir"] = self.config.data_dir
            try:
                _payload, commit_seq, generation = read_catalog(
                    self.config.data_dir)
                meta["commit_seq"] = commit_seq
                meta["generation"] = generation
            except Exception:  # pragma: no cover - catalog mid-write
                pass
        slopes_changed = (
            meta["slope_hash"] != self._engine_meta.get("slope_hash"))
        # Queued observations belong to the outgoing engine: score and
        # log them against it before the identity (and model) move on.
        self.flush_observations()
        self._engine_meta = meta
        if self._tracer is not None:
            anchors = list(planner.index.slopes)
            if self._cost_model is None:
                self._cost_model = PageCostModel(anchors)
            elif slopes_changed:
                # A new slope set invalidates the fitted distance→pages
                # line; restart calibration against the new anchors.
                self._cost_model.reset_anchors(anchors)

    async def stop(self) -> None:
        """Drain: stop accepting, finish in-flight work, close engine."""
        self._draining = True
        if self._tune_task is not None:
            self._tune_task.cancel()
            try:
                await self._tune_task
            except asyncio.CancelledError:
                pass
            self._tune_task = None
        slopelog.install(self._prev_slope_log)
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        if self._coalescer is not None:
            await self._coalescer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        try:
            loop.remove_signal_handler(signal.SIGHUP)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        if self._owns_engine and self._engine is not None:
            await loop.run_in_executor(
                self._exec, _close_engine, self._engine)
            self._engine = None
        self._exec.shutdown(wait=True)
        self.flush_observations()
        if self._slowlog is not None and self.config.slowlog_out:
            self._slowlog.write_jsonl(self.config.slowlog_out)
        if self.config.trace_out and self._last_trace is not None:
            with open(self.config.trace_out, "w", encoding="utf-8") as fh:
                json.dump(self._last_trace, fh, sort_keys=True)
                fh.write("\n")

    async def reload(self) -> None:
        """Reopen the engine from ``data_dir`` and swap it in.

        Runs on the engine thread, which serializes it *behind* every
        batch already queued: in-flight queries drain against the old
        engine, queries coalesced afterwards see the new one. The old
        engine is closed after the swap.
        """
        if not self.config.data_dir:
            raise QueryError("reload needs a data_dir to reopen from")
        loop = asyncio.get_running_loop()

        def _swap():
            fresh = self._open_engine()
            stale, self._engine = self._engine, fresh
            if stale is not None:
                _close_engine(stale)

        await loop.run_in_executor(self._exec, _swap)
        self._note_engine_swap()
        self._c_reloads.inc()

    # ------------------------------------------------------------------
    # online retune
    # ------------------------------------------------------------------
    def _current_slopes(self):
        engine = self._engine
        planner = engine.planners[0] if hasattr(engine, "planners") \
            else engine
        return planner.index.slopes

    async def tune(self, apply: bool = False) -> dict:
        """Learn a slope set from the served traffic; with ``apply``,
        rebuild and hot-swap when the cost model predicts a win.

        The decision (``repro.tune.propose``) is pure and works on any
        engine; applying is supported on single-planner engines only.
        The rebuild never runs on the engine thread — queries keep
        flowing — and the swap itself does, so it serializes behind
        every in-flight batch exactly like a SIGHUP reload: no query
        ever observes a half-swapped engine or gets dropped.
        """
        from repro.tune import propose

        snapshot = self._slope_log.snapshot()
        if snapshot.count < self.config.tune_min_evidence:
            self._c_tune_skips.labels(reason="evidence").inc()
            return {
                "tuned": False,
                "reason": "evidence",
                "evidence": snapshot.count,
                "required": self.config.tune_min_evidence,
            }
        current = self._current_slopes()
        loop = asyncio.get_running_loop()
        decision = await loop.run_in_executor(
            None, lambda: propose(snapshot, current))
        report = {"tuned": False, "decision": decision.to_dict()}
        if not apply:
            return report
        if not decision.worthwhile:
            self._c_tune_skips.labels(reason="not_worthwhile").inc()
            report["reason"] = "not_worthwhile"
            return report
        if await self._apply_decision(decision):
            # Evidence is consumed: the next decision must be earned by
            # fresh traffic measured against the *new* slope set.
            self._slope_log.drain()
            self._note_engine_swap()
            self._c_tune_swaps.inc()
            report["tuned"] = True
        else:
            self._c_tune_skips.labels(reason="mutated").inc()
            report["reason"] = "mutated"
        return report

    async def _apply_decision(self, decision) -> bool:
        """Rebuild to ``decision.learned`` off-thread, hot-swap on the
        engine thread. Returns False if a mutation raced the rebuild
        (the stale rebuild is discarded; the next cycle retries)."""
        from repro.tune import rebuild_planner, relation_from_planner

        if hasattr(self._engine, "planners"):
            raise QueryError(
                "online retune is not supported on a sharded engine")
        planner = self._engine
        loop = asyncio.get_running_loop()

        def _extract():
            return relation_from_planner(planner), self._mutation_seq

        # Extraction serializes behind in-flight batches and mutations.
        relation, seq_before = await loop.run_in_executor(
            self._exec, _extract)
        # The rebuild touches only the extracted copy: run it on the
        # default pool so queries keep draining on the engine thread.
        fresh = await loop.run_in_executor(
            None,
            lambda: rebuild_planner(
                planner, decision.learned, relation=relation))
        out_dir = None
        if self.config.data_dir:
            # Persist the tuned engine as a sibling data-dir (rollback =
            # keep pointing at the old one) and reopen from it, so the
            # swapped-in engine is WAL-backed and commits/reloads/
            # auto-checkpoints follow the swap.
            self._tune_seq += 1
            out_dir = f"{self.config.data_dir.rstrip('/')}" \
                      f"-tuned{self._tune_seq}"

            def _persist():
                fresh.save(out_dir)
                return open_engine(out_dir)

            fresh = await loop.run_in_executor(None, _persist)

        def _swap():
            if self._mutation_seq != seq_before:
                _close_engine(fresh)
                return False
            stale, self._engine = self._engine, fresh
            if out_dir is not None:
                self.config.data_dir = out_dir
            if self._owns_engine:
                _close_engine(stale)
            self._owns_engine = True
            return True

        return await loop.run_in_executor(self._exec, _swap)

    async def _auto_tune_loop(self) -> None:
        """The ``--auto-tune`` background cadence."""
        try:
            while True:
                await asyncio.sleep(self.config.tune_interval)
                try:
                    await self.tune(apply=True)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    self._c_tune_skips.labels(reason="error").inc()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # engine thread
    # ------------------------------------------------------------------
    def _note_flush(self, size: int) -> None:
        self._c_batches.inc()
        self._h_batch.observe(size)

    async def _execute_batch(self, items: list):
        """Coalescer flush → one ``query_batch`` on the engine thread.

        ``items`` are ``(query, ctx)`` pairs — the coalescer treats them
        opaquely. With tracing off every ``ctx`` is None and the engine
        call is exactly the pre-tracing one. With tracing on, the batch
        runs under the first context in the batch (so downstream span
        meta carries a trace id); if any request in the batch was
        *sampled*, a full :class:`~repro.obs.trace.QueryTrace` records
        the batch's span tree. Afterwards the batch bill is attributed
        per request (the response carries ``pages``); the cost
        watchdog's verdict joins the deferred observation drain so the
        batch critical path stays lean.
        """
        loop = asyncio.get_running_loop()

        def _run():
            queries = [query for query, _ in items]
            contexts = [ctx for _, ctx in items]
            install = next(
                (ctx for ctx in contexts if ctx is not None), None)
            trace = None
            if (
                install is not None
                and any(ctx is not None and ctx.sampled
                        for ctx in contexts)
                and obs.current() is None
            ):
                sampled = next(
                    ctx for ctx in contexts
                    if ctx is not None and ctx.sampled)
                engine = self._engine
                planner = engine.planners[0] \
                    if hasattr(engine, "planners") else engine
                trace = obs.QueryTrace(
                    pager=planner.index.pager, name="serve.batch",
                    meta={"trace": sampled.trace_id,
                          "batch": len(items)})
            with tracer.request_context(install):
                if trace is not None:
                    with obs.tracing(trace):
                        batch = self._engine.query_batch(queries)
                    trace.close()
                else:
                    batch = self._engine.query_batch(queries)
            if self._tracer is None:
                return [(result, None) for result in batch.results]
            return self._annotate_batch(batch, queries, contexts, trace)

        return await loop.run_in_executor(self._exec, _run)

    def _annotate_batch(self, batch, queries, contexts, trace):
        """Per-request page attribution, on the engine thread.

        The batch's shared work (descents, merged sweeps, surface
        passes) is split evenly across the batch; refinement pages are
        per-query attributable (``QueryResult.refinement_pages``) and
        ride with their owner. The split is clamped so a per-query sum
        exceeding the batch bill (shared refinement pages are counted
        once per batch but reported per query) never attributes
        negative shared work. The cost-watchdog verdict is *not*
        computed here — it rides the deferred observation drain
        (:meth:`_observe_traced`), off the batch critical path.
        """
        results = batch.results
        n = len(results)
        own = [float(getattr(r, "refinement_pages", 0) or 0)
               for r in results]
        shared = max(0.0, float(batch.page_accesses) - sum(own)) / n
        span_tree = trace.to_dict() if trace is not None else None
        if span_tree is not None:
            self._last_trace = span_tree
        out = []
        for ctx, result, own_pages in zip(contexts, results, own):
            out.append((result, {
                "ctx": ctx,
                "pages": shared + own_pages,
                "batch_size": n,
                "span_tree": span_tree
                if (ctx is not None and ctx.sampled) else None,
            }))
        return out

    async def _run_mutation(self, fn):
        """Run ``fn`` on the engine thread, then auto-checkpoint if the
        WAL outgrew its threshold."""
        loop = asyncio.get_running_loop()

        def _run():
            result = fn()
            self._mutation_seq += 1
            checkpointed = False
            planner = self._engine
            if (
                self.config.data_dir
                and not hasattr(planner, "planners")
                and wal_size(planner) > self.config.wal_checkpoint_bytes
            ):
                checkpointed = maybe_checkpoint(
                    planner, self.config.data_dir,
                    self.config.wal_checkpoint_bytes)
            return result, checkpointed

        result, checkpointed = await loop.run_in_executor(self._exec, _run)
        self._note_engine_swap()
        if checkpointed:
            self._c_checkpoints.inc()
        return result

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._g_connections.inc()
        decoder = FrameDecoder(self.config.max_frame)
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        try:
            while True:
                # Slow-loris defense: a *partial* frame must keep
                # making progress; an idle boundary may sit forever.
                timeout = (
                    self.config.read_timeout if decoder.pending_bytes
                    else None)
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(65536), timeout=timeout)
                except asyncio.TimeoutError:
                    self._c_timeouts.inc()
                    await self._send(
                        writer, write_lock,
                        error_response(
                            None, "BAD_REQUEST",
                            f"no progress on a partial frame within "
                            f"{self.config.read_timeout}s"))
                    break
                if not chunk:
                    try:
                        decoder.finish()
                    except ProtocolError:
                        self._c_disconnects.inc()
                    break
                try:
                    requests = decoder.feed(chunk)
                except ProtocolError as exc:
                    await self._send(
                        writer, write_lock,
                        error_response(None, "BAD_REQUEST", str(exc)))
                    break
                for request in requests:
                    # Task-per-request so pipelined queries land in the
                    # same coalesced batch instead of serializing.
                    rtask = asyncio.get_running_loop().create_task(
                        self._handle_request(request, writer, write_lock))
                    request_tasks.add(rtask)
                    rtask.add_done_callback(request_tasks.discard)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for rtask in list(request_tasks):
                rtask.cancel()
            if request_tasks:
                await asyncio.gather(
                    *request_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._g_connections.dec()
            self._conn_tasks.discard(task)

    async def _send(self, writer, write_lock, obj: dict) -> None:
        if not obj.get("ok", True):
            self._c_errors.labels(code=obj["error"]["code"]).inc()
        try:
            frame = encode_frame(obj, self.config.max_frame)
        except FrameTooLargeError:
            obj = error_response(
                obj.get("id"), "INTERNAL",
                "response exceeds the frame cap")
            self._c_errors.labels(code="INTERNAL").inc()
            frame = encode_frame(obj, self.config.max_frame)
        async with write_lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                # Client went away mid-response; their loss.
                self._c_disconnects.inc()

    async def _handle_request(self, request, writer, write_lock) -> None:
        started = time.monotonic()
        rid = request.get("id") if isinstance(request, dict) else None
        op = request.get("op") if isinstance(request, dict) else None
        try:
            validate_request(request)
        except ProtocolError as exc:
            await self._send(
                writer, write_lock,
                error_response(
                    rid if isinstance(rid, int) else None,
                    "BAD_REQUEST", str(exc)))
            return
        self._c_requests.labels(op=op).inc()
        if self._draining:
            await self._send(
                writer, write_lock,
                error_response(rid, "SHUTTING_DOWN", "server is draining"))
            return
        if self._inflight >= self.config.max_queue_depth:
            await self._send(
                writer, write_lock,
                error_response(
                    rid, "OVERLOADED",
                    f"{self._inflight} requests in flight (cap "
                    f"{self.config.max_queue_depth}); back off and retry"))
            return
        ctx = (
            self._tracer.make_context(request.get("trace"))
            if self._tracer is not None else None)
        self._inflight += 1
        self._g_inflight.set(self._inflight)
        try:
            meta = {"trace": ctx.trace_id} if ctx is not None else {}
            with obs.span(f"serve.{op}", id=rid, **meta):
                response = await self._dispatch(request, ctx, started)
            response["id"] = rid
            if ctx is not None:
                response.setdefault("trace_id", ctx.trace_id)
                self._c_traced.inc()
            await self._send(writer, write_lock, response)
        except asyncio.CancelledError:
            raise
        except QueryError as exc:
            # The request was well-formed but this engine can't do it
            # (mutation on a sharded engine, commit without a data_dir).
            await self._send(
                writer, write_lock,
                error_response(rid, "UNSUPPORTED", str(exc)))
        except ReproError as exc:
            # Engine-side failure (storage fault, injected crash): the
            # client's request was fine, the server hurt itself.
            await self._send(
                writer, write_lock,
                error_response(
                    rid, "INTERNAL", f"{type(exc).__name__}: {exc}"))
        except Exception as exc:
            await self._send(
                writer, write_lock,
                error_response(
                    rid, "INTERNAL", f"{type(exc).__name__}: {exc}"))
        finally:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
            self._g_depth.set(
                self._coalescer.depth if self._coalescer else 0)
            self._h_latency.labels(op=op).observe(
                time.monotonic() - started)

    async def _dispatch(self, request: dict, ctx=None,
                        started: float | None = None) -> dict:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "query":
            query = query_from_request(request)
            result, note = await self._coalescer.submit((query, ctx))
            ids = sorted(result.ids)
            response = {
                "ok": True,
                "ids": ids,
                "technique": result.technique,
                "cached": result.cached,
            }
            if note is not None:
                response["pages"] = round(note["pages"], 3)
                self._queue_observation(query, result, ids, note, started)
            return response
        if op == "stats":
            self.flush_observations()
            registry = get_registry()
            return {
                "ok": True,
                "metrics": registry.collect(),
                "wal_bytes": (
                    0 if hasattr(self._engine, "planners")
                    else wal_size(self._engine)),
            }
        if op == "reload":
            await self.reload()
            return {"ok": True, "reloaded": True}
        if op == "tune":
            report = await self.tune(apply=bool(request.get("apply")))
            return {"ok": True, **report}
        if op == "shutdown":
            # Acknowledge first; the drain starts a beat later so this
            # response reaches the client before connections close.
            async def _stop_soon():
                await asyncio.sleep(0.05)
                await self.stop()

            asyncio.get_running_loop().create_task(_stop_soon())
            return {"ok": True, "stopping": True}
        if hasattr(self._engine, "planners"):
            raise QueryError(f"op {op!r} is not supported on a sharded "
                             "engine (mutations need a single planner)")
        planner = self._engine
        if op == "insert":
            tuple_obj = _tuple_from_wire(request["tuple"])
            await self._run_mutation(
                lambda: planner.insert(request["tid"], tuple_obj))
            return {"ok": True, "tid": request["tid"]}
        if op == "delete":
            await self._run_mutation(lambda: planner.delete(request["tid"]))
            return {"ok": True, "tid": request["tid"]}
        if op == "commit":
            if not self.config.data_dir:
                raise QueryError("commit needs a server data_dir")
            seq = await self._run_mutation(
                lambda: planner.commit(self.config.data_dir))
            return {"ok": True, "seq": seq, "wal_bytes": wal_size(planner)}
        raise QueryError(f"unhandled op {op!r}")  # pragma: no cover

    def _queue_observation(self, query, result, ids, note, started) -> None:
        """Defer one traced query's bookkeeping off the critical path.

        Histograms, the watchdog verdict, and the slow-query-log offer
        are not needed to answer the request, so the request path only
        stamps the latency and appends a tuple here; the loop drains
        the queue between I/O passes (``call_soon``), and every reader
        of the metrics or the log flushes it first
        (:meth:`flush_observations`) so nothing observable lags."""
        latency = (
            time.monotonic() - started if started is not None else 0.0)
        if len(self._obs_pending) >= _OBS_PENDING_MAX:
            # Overload: shed the bookkeeping, never the request.
            self._slowlog.note_dropped()
            return
        self._obs_pending.append((query, result, ids, note, latency))
        if not self._obs_scheduled:
            self._obs_scheduled = True
            asyncio.get_running_loop().call_soon(self._drain_observations)

    def _drain_observations(self) -> None:
        # Bounded chunk per loop pass so a burst can't starve I/O.
        with self._obs_lock:
            for _ in range(256):
                if not self._obs_pending:
                    break
                self._observe_traced(*self._obs_pending.popleft())
        if self._obs_pending:
            asyncio.get_running_loop().call_soon(self._drain_observations)
        else:
            self._obs_scheduled = False

    def flush_observations(self) -> None:
        """Drain every queued observation now. Called before anything
        reads the metrics or the slow-query log; safe (and cheap) when
        the queue is empty or tracing is off."""
        with self._obs_lock:
            while self._obs_pending:
                self._observe_traced(*self._obs_pending.popleft())

    def _observe_traced(self, query, result, ids, note, latency) -> None:
        """Record one traced query: histograms (exemplar-linked to the
        trace id), the watchdog verdict, and a slow-query-log offer.

        The latency was stamped when the batch answered (send and
        deferral excluded — the log ranks server-side work, not client
        socket time or bookkeeping lag). Runs under ``_obs_lock``; the
        cost model is only ever touched here, in queue order, so the
        predict-before-observe verdict stays out-of-sample."""
        global _query_to_json
        if _query_to_json is None:
            from repro.verify.differential import query_to_json
            _query_to_json = query_to_json

        ctx = note["ctx"]
        pages = note["pages"]
        model = self._cost_model
        predicted = ratio = None
        violation = False
        if model is not None:
            slope = query.slope_2d
            distance = model.distance(slope)
            # Predict before observing: the verdict is always
            # out-of-sample.
            predicted = model.predict(slope, distance=distance)
            model.observe(slope, pages, distance=distance)
            if predicted:
                ratio = pages / predicted
                violation = ratio > self.config.cost_budget
        exemplar = ctx.trace_id if ctx is not None else None
        self._h_pages.observe(pages, exemplar=exemplar)
        if ratio is not None:
            self._h_cost_ratio.observe(ratio, exemplar=exemplar)
        if violation:
            self._c_violations.inc()
        if not self._slowlog.would_keep(
            latency, pages, violation=violation
        ):
            # The common fast-request case: skip the entry build (the
            # answer digest is the expensive part) entirely.
            self._slowlog.note_dropped()
            return
        entry = SlowLogEntry(
            trace_id=ctx.trace_id if ctx is not None else "-",
            op="query",
            latency_s=latency,
            pages=pages,
            query=_query_to_json(query),
            technique=result.technique,
            accounting={
                "candidates": result.candidates,
                "false_hits": result.false_hits,
                "accepted_without_refinement":
                    result.accepted_without_refinement,
                "refinement_pages": result.refinement_pages,
                "cached": result.cached,
            },
            predicted_pages=predicted,
            ratio=ratio,
            reason="cost_model" if violation else "latency",
            batch_size=note["batch_size"],
            engine=dict(self._engine_meta),
            answer={"count": len(ids), "digest": answer_digest(ids)},
            span_tree=note["span_tree"],
        )
        self._slowlog.record(entry)

    @property
    def slowlog(self) -> SlowQueryLog | None:
        """The live slow-query log (None with tracing off)."""
        self.flush_observations()
        return self._slowlog

    # ------------------------------------------------------------------
    # metrics endpoint (HTTP sidecar)
    # ------------------------------------------------------------------
    def _healthz_body(self) -> bytes:
        """The ``/healthz`` JSON body; also updates the WAL/checkpoint
        gauges so durability debt is visible *between* auto-checkpoints
        (a probe is exactly when an operator is looking)."""
        engine = self._engine
        wal = (
            0 if engine is None or hasattr(engine, "planners")
            else wal_size(engine))
        lag = max(0, wal - self.config.wal_checkpoint_bytes)
        self._g_wal.set(float(wal))
        self._g_ckpt_lag.set(float(lag))
        payload = {
            "ok": True,
            "wal_bytes": wal,
            "checkpoint_lag_bytes": lag,
            "inflight": self._inflight,
            "draining": self._draining,
        }
        return (json.dumps(payload, sort_keys=True) + "\n") \
            .encode("utf-8")

    async def _handle_metrics(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.0: GET /metrics → Prometheus text, /healthz →
        health JSON (WAL + checkpoint lag), /slowlog → the slow-query
        log; one request per connection."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.config.read_timeout)
            parts = line.decode("latin-1", "replace").split()
            target = parts[1] if len(parts) >= 2 else ""
            while True:  # drain headers up to the blank line
                header = await asyncio.wait_for(
                    reader.readline(), timeout=self.config.read_timeout)
                if header in (b"\r\n", b"\n", b""):
                    break
            if target == "/metrics":
                self.flush_observations()
                body = get_registry().export_prom().encode("utf-8")
                status, ctype = "200 OK", "text/plain; version=0.0.4"
            elif target == "/healthz":
                body = self._healthz_body()
                status, ctype = "200 OK", "application/json"
            elif target == "/slowlog":
                self.flush_observations()
                payload = (
                    self._slowlog.to_json() if self._slowlog is not None
                    else {"capacity": 0, "recorded": 0, "dropped": 0,
                          "entries": []})
                body = (json.dumps(payload, sort_keys=True) + "\n") \
                    .encode("utf-8")
                status, ctype = "200 OK", "application/json"
            else:
                body, status, ctype = b"not found\n", "404 Not Found", \
                    "text/plain"
            writer.write(
                f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _close_engine(engine) -> None:
    """Release an engine's pools and file descriptors."""
    if hasattr(engine, "planners"):
        engine.close()
        planners = engine.planners
    else:
        planners = [engine]
    for planner in planners:
        disk = planner.index.pager.disk
        close = getattr(disk, "close", None)
        if close is not None:
            close()


def _tuple_from_wire(atoms: list) -> "object":
    """Build a GeneralizedTuple from its wire form (list of
    ``{"coeffs", "const", "theta"}`` atoms, matching the fuzzer's
    ``tuple_to_json`` layout)."""
    from repro.constraints.linear import LinearConstraint
    from repro.constraints.tuples import GeneralizedTuple

    try:
        return GeneralizedTuple([
            LinearConstraint(tuple(a["coeffs"]), a["const"], a["theta"])
            for a in atoms
        ])
    except (TypeError, KeyError, ReproError) as exc:
        raise ProtocolError(f"malformed insert tuple: {exc}")


async def serve_until_interrupted(config: ServeConfig) -> None:
    """Run a server until SIGINT/SIGTERM (the ``repro serve`` CLI loop)."""
    server = ReproServer(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # pragma: no cover - non-main-thread embedding
    print(f"serving {config.data_dir} on {config.host}:{server.port}"
          + (f" (metrics :{server.metrics_port})"
             if server.metrics_port is not None else ""),
          flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
