"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each layer of ``repro``
(the probe table :data:`PROBES`) and records, per call, a span on the
calling thread. A layer's *self time* is its spans' durations minus the
part covered by nested spans on the same thread. Nothing in ``src/`` is
modified: the wrappers are installed by :meth:`LayerTracer.install` and
removed by :meth:`LayerTracer.uninstall`.

Three span kinds need more than a stack:

* ``forkjoin`` (``ShardedDualIndex.query_batch``): its children run on
  the fan-out threads. The wall interval they cover (the union of their
  top-level spans) is charged to the children's layers in proportion to
  their self times, and only the rest to the shard layer, so concurrent
  threads never count the same wall time twice.
* ``wait`` (``Coalescer.submit``, a coroutine): its duration is time a
  request waited, not work, so it is recorded but never on the stack.
* ``select`` (the event loop's selector): time the loop thread was
  blocked; with the engine-thread busy time it gives the idle row.

:func:`layer_metrics` turns a snapshot delta into the benchmark's
per-layer metrics; the ``self.*`` rows plus ``self.unattributed`` sum to
the traced wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import selectors
import threading
import time
from collections import defaultdict

#: Layers whose self time is reported, in report order.
LAYERS = (
    "serve", "exec", "core", "btree", "geometry.vectorized",
    "geometry.predicates", "storage", "shard",
)

#: (module, class or None, attribute, layer, kind). A function imported
#: by name into another module is patched where it is looked up.
PROBES = (
    ("repro.serve.protocol", "FrameDecoder", "feed", "serve", "call"),
    ("repro.serve.server", None, "encode_frame", "serve", "call"),
    ("repro.serve.server", None, "validate_request", "serve", "call"),
    ("repro.serve.server", None, "query_from_request", "serve", "call"),
    ("repro.serve.coalesce", "Coalescer", "submit", "serve", "wait"),
    ("repro.exec.executor", "BatchExecutor", "execute", "exec", "call"),
    ("repro.geometry.vectorized", "DualSurface", "from_items",
     "geometry.vectorized", "classmethod"),
    ("repro.geometry.vectorized", "DualSurface", "answer_tids",
     "geometry.vectorized", "call"),
    ("repro.core.planner", None, "exist_halfplane",
     "geometry.predicates", "call"),
    ("repro.core.planner", None, "all_halfplane",
     "geometry.predicates", "call"),
    ("repro.exec.executor", None, "exist_halfplane",
     "geometry.predicates", "call"),
    ("repro.exec.executor", None, "all_halfplane",
     "geometry.predicates", "call"),
    ("repro.core.planner", "DualIndexPlanner", "query", "core", "call"),
    ("repro.core.planner", None, "t1_candidates", "core", "call"),
    ("repro.core.planner", None, "t2_candidates", "core", "call"),
    ("repro.core.dual_index", "DualIndex", "refresh_handicaps", "core",
     "call"),
    ("repro.core.planner", "DualIndexPlanner", "insert", "core", "call"),
    ("repro.core.planner", "DualIndexPlanner", "delete", "core", "call"),
    ("repro.btree.tree", "BPlusTree", "sweep_up_multi", "btree", "call"),
    ("repro.btree.tree", "BPlusTree", "sweep_down_multi", "btree", "call"),
    ("repro.btree.tree", "BPlusTree", "sweep_up", "btree", "generator"),
    ("repro.btree.tree", "BPlusTree", "sweep_down", "btree", "generator"),
    ("repro.storage.heap", "HeapFile", "fetch", "storage", "call"),
    ("repro.storage.heap", "HeapFile", "fetch_batch", "storage", "call"),
    ("repro.storage.heap", "HeapFile", "scan", "storage", "generator"),
    ("repro.storage.serialize", None, "decode_tuple", "storage", "call"),
    ("repro.exec.executor", None, "decode_tuple", "storage", "call"),
    ("repro.core.dual_index", None, "decode_tuple", "storage", "call"),
    ("repro.storage.checkpoint", None, "commit_planner", "storage", "call"),
    ("repro.storage.filepager", "FileDisk", "checkpoint", "storage", "call"),
    ("repro.storage.wal", "WriteAheadLog", "append_page", "storage", "wal"),
    ("repro.storage.wal", "WriteAheadLog", "append_alloc", "storage", "wal"),
    ("repro.storage.wal", "WriteAheadLog", "append_free", "storage", "wal"),
    ("repro.shard.sharded", "ShardedDualIndex", "query_batch", "shard",
     "forkjoin"),
)


class _ThreadState:
    """One thread's span stack and accumulators (written only by it)."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Start of the selector wait in progress, if any.
        self.select_since: float | None = None
        self.engine = threading.current_thread().name.startswith(
            "repro-engine")


class _Group:
    """An open fork-join span: children on other threads land here."""

    def __init__(self) -> None:
        self.owner = threading.get_ident()
        self.parts: dict[int, dict[str, float]] = {}
        self.intervals: list[tuple[float, float]] = []


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class LayerTracer:
    """Installs the probe wrappers and accumulates their spans.

    ``query_probe`` names the one probe whose return values carry the
    per-query accounting of the workload's engine entry point
    (``query``, ``execute`` or ``query_batch``), so nested engine calls
    are not counted twice.
    """

    def __init__(self, query_probe: str) -> None:
        self.query_probe = query_probe
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._group: _Group | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _enter(self) -> tuple[_ThreadState, list[float]]:
        state = self._state()
        frame = [time.perf_counter(), 0.0]
        state.stack.append(frame)
        return state, frame

    def _exit(self, state: _ThreadState, frame: list[float], layer: str,
              probe: str, covered_s: float = 0.0, call: bool = True) -> float:
        end = time.perf_counter()
        state.stack.pop()
        duration = end - frame[0]
        frame.append(duration)
        own = duration - frame[1] - covered_s
        if state.stack:
            state.stack[-1][1] += duration
        elif state.engine:
            state.counts["engine_busy_s"] += duration
        state.incl_s[probe] += duration
        if call:
            state.calls[probe] += 1
        group = self._group
        if group is not None and threading.get_ident() != group.owner:
            part = group.parts.setdefault(
                threading.get_ident(), defaultdict(float))
            part[layer] += own
            if not state.stack:
                group.intervals.append((frame[0], end))
        else:
            state.self_s[layer] += own
        return duration

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_call(self, fn, layer: str, probe: str):
        observe = _OBSERVERS.get(probe)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(state, frame, layer, probe)
            if observe is not None:
                observe(self, state, result, frame[2])
            return result

        return wrapper

    def _wrap_wal(self, fn, layer: str, probe: str):
        @functools.wraps(fn)
        def wrapper(wal, *args, **kwargs):
            before = wal.size_bytes
            state, frame = self._enter()
            try:
                return fn(wal, *args, **kwargs)
            finally:
                self._exit(state, frame, layer, probe)
                state.counts["wal_bytes"] += wal.size_bytes - before

        return wrapper

    def _wrap_generator(self, fn, layer: str, probe: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tracer._state().calls[probe] += 1

            def steps():
                while True:
                    state, frame = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(state, frame, layer, probe, call=False)
                    state.counts[probe + ".items"] += 1
                    yield item

            return steps()

        return wrapper

    def _wrap_forkjoin(self, fn, layer: str, probe: str):
        observe = _OBSERVERS.get(probe)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = _Group()
            self._group = group
            state, frame = self._enter()
            started = frame[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                self._group = None
                union = covered(group.intervals)
                duration = self._exit(state, frame, layer, probe,
                                      covered_s=union)
                work = sum(sum(p.values()) for p in group.parts.values())
                scale = union / work if work > 0 else 0.0
                for part in group.parts.values():
                    for child_layer, seconds in part.items():
                        state.self_s[child_layer] += seconds * scale
                ends = [hi for _lo, hi in group.intervals]
                spans = [hi - lo for lo, hi in group.intervals]
                if ends:
                    join = max(ends)
                    state.counts["shard.fanout_s"] += join - started
                    state.counts["shard.merge_s"] += (
                        started + duration - join)
                    mean = sum(spans) / len(spans)
                    if mean > 0:
                        state.counts["shard.skew_sum"] += max(spans) / mean
                        state.counts["shard.skew_n"] += 1
            if observe is not None:
                observe(self, state, result, duration)
            return result

        return wrapper

    def _wrap_wait(self, fn, layer: str, probe: str):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                state = self._state()
                state.incl_s[probe] += time.perf_counter() - started
                state.calls[probe] += 1

        return wrapper

    def _wrap_select(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            state.select_since = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state.counts["select_s"] += (
                    time.perf_counter() - state.select_since)
                state.select_since = None

        return wrapper

    # ------------------------------------------------------------------
    # install / snapshot
    # ------------------------------------------------------------------
    def install(self, served: bool = False) -> None:
        """Patch every probe (and, for a server, the loop's selector)."""
        wrappers = {
            "call": self._wrap_call,
            "generator": self._wrap_generator,
            "wal": self._wrap_wal,
            "forkjoin": self._wrap_forkjoin,
            "wait": self._wrap_wait,
        }
        for module_name, class_name, attr, layer, kind in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else \
                getattr(module, attr)
            if kind == "classmethod":
                wrapped = classmethod(
                    self._wrap_call(original.__func__, layer, attr))
            else:
                wrapped = wrappers[kind](original, layer, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        if served:
            selector = selectors.DefaultSelector
            self._patches.append(
                (selector, "select", selector.__dict__.get("select")))
            selector.select = self._wrap_select(selector.select)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Additive totals over every thread seen so far."""
        with self._states_lock:
            states = list(self._states)
        out: dict = {"self_s": defaultdict(float), "incl_s": defaultdict(float),
                     "calls": defaultdict(float), "counts": defaultdict(float)}
        now = time.perf_counter()
        for state in states:
            for key in ("self_s", "incl_s", "calls", "counts"):
                for name, value in dict(getattr(state, key)).items():
                    out[key][name] += value
            # A wait in progress counts up to now, so a window's delta
            # holds exactly the waiting inside the window.
            since = state.select_since
            if since is not None:
                out["counts"]["select_s"] += now - since
        return {key: dict(value) for key, value in out.items()}


def snapshot_delta(before: dict, after: dict) -> dict:
    """``after - before`` for two :meth:`LayerTracer.snapshot` results."""
    return {
        key: {
            name: value - before.get(key, {}).get(name, 0.0)
            for name, value in after[key].items()
        }
        for key in after
    }


# ----------------------------------------------------------------------
# result observers: per-query accounting read from return values
# ----------------------------------------------------------------------
def _observe_query(tracer: LayerTracer, state: _ThreadState, result,
                   _duration: float) -> None:
    if tracer.query_probe != "query":
        return
    c = state.counts
    c["queries"] += 1
    c["candidates"] += result.candidates
    c["results"] += result.answer_count
    c["index_pages"] += result.index_accesses
    c["refine_pages"] += result.refinement_pages


def _observe_batch(probe: str):
    def observe(tracer: LayerTracer, state: _ThreadState, result,
                duration: float) -> None:
        c = state.counts
        n = len(result.results)
        if probe == "execute":
            c["exec.hits"] += result.cache_hits
            c["exec.misses"] += result.cache_misses
            if state.engine:
                # Each served query waits for its whole batch.
                c["serve.batches"] += 1
                c["serve.batch_queries"] += n
                c["serve.engine_query_s"] += n * duration
        if tracer.query_probe != probe:
            return
        c["queries"] += n
        c["candidates"] += sum(r.candidates for r in result.results)
        c["results"] += sum(r.answer_count for r in result.results)
        c["refine_pages"] += result.refinement_pages
        c["index_pages"] += result.page_accesses - result.refinement_pages

    return observe


def _observe_sweep(_tracer, state: _ThreadState, result, _d: float) -> None:
    state.counts["sweep.leaves"] += result.leaves


def _counter(name: str):
    def observe(_tracer, state: _ThreadState, _result, _d: float) -> None:
        state.counts[name] += 1

    return observe


_OBSERVERS = {
    "query": _observe_query,
    "execute": _observe_batch("execute"),
    "query_batch": _observe_batch("query_batch"),
    "sweep_up_multi": _observe_sweep,
    "sweep_down_multi": _observe_sweep,
    "from_items": _counter("surface.builds"),
    "checkpoint": _counter("checkpoints"),
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(delta: dict, wall_s: float, ops: int, queries: int,
                  mutations: int, served: bool) -> dict[str, float]:
    """Per-layer metrics from one traced window.

    ``wall_s`` is the window's wall time, ``ops`` the requests completed
    in it (queries plus writes), ``queries``/``mutations`` their split.
    The ``self.*`` rows are milliseconds per op and sum to ``self.wall``.
    """
    self_s, incl, calls, counts = (
        delta["self_s"], delta["incl_s"], delta["calls"], delta["counts"])

    def incl_ms(*probes: str) -> float:
        return sum(incl.get(p, 0.0) for p in probes) * 1e3

    def n_calls(*probes: str) -> float:
        return sum(calls.get(p, 0.0) for p in probes)

    engine_busy = counts.get("engine_busy_s", 0.0)
    idle_s = max(0.0, counts.get("select_s", 0.0) - engine_busy) \
        if served else 0.0
    batch_q = counts.get("serve.batch_queries", 0.0)
    engine_per_query = _per(counts.get("serve.engine_query_s", 0.0) * 1e3,
                            batch_q)
    predicate = ("exist_halfplane", "all_halfplane")
    out = {
        "serve.coalesce_wait_ms": max(
            0.0, _per(incl_ms("submit"), n_calls("submit"))
            - engine_per_query) if served else 0.0,
        "serve.batch_size": _per(batch_q, counts.get("serve.batches", 0.0)),
        "serve.frame_us": _per(
            incl_ms("feed", "encode_frame"), ops, 1e3) if served else 0.0,
        "serve.engine_busy_frac": _per(engine_busy, wall_s)
        if served else 0.0,
        "exec.execute_ms": _per(incl_ms("execute"), n_calls("execute")),
        "exec.cache_hit_ratio": _per(
            counts.get("exec.hits", 0.0),
            counts.get("exec.hits", 0.0) + counts.get("exec.misses", 0.0)),
        "surface.builds": counts.get("surface.builds", 0.0),
        "surface.build_ms": _per(incl_ms("from_items"), n_calls("from_items")),
        "surface.answer_us": _per(
            incl_ms("answer_tids"), n_calls("answer_tids"), 1e3),
        "verify.us_per_candidate": _per(
            incl_ms(*predicate), n_calls(*predicate), 1e3),
        "verify.ms_per_query": _per(incl_ms(*predicate), queries),
        "core.candgen_ms": _per(
            incl_ms("t1_candidates", "t2_candidates"),
            n_calls("t1_candidates", "t2_candidates")),
        "core.candidates_per_query": _per(
            counts.get("candidates", 0.0), counts.get("queries", 0.0)),
        "core.hit_ratio": _per(
            counts.get("results", 0.0), counts.get("candidates", 0.0)),
        "core.maintain_ms": _per(
            incl_ms("refresh_handicaps"), n_calls("refresh_handicaps")),
        "core.insert_ms": _per(incl_ms("insert"), n_calls("insert")),
        "core.delete_ms": _per(incl_ms("delete"), n_calls("delete")),
        "btree.index_pages_per_query": _per(
            counts.get("index_pages", 0.0), counts.get("queries", 0.0)),
        "btree.sweep_ms": _per(
            incl_ms("sweep_up_multi", "sweep_down_multi", "sweep_up",
                    "sweep_down"),
            n_calls("sweep_up_multi", "sweep_down_multi", "sweep_up",
                    "sweep_down")),
        "btree.leaves_per_sweep": _per(
            counts.get("sweep.leaves", 0.0)
            + counts.get("sweep_up.items", 0.0)
            + counts.get("sweep_down.items", 0.0),
            n_calls("sweep_up_multi", "sweep_down_multi", "sweep_up",
                    "sweep_down")),
        "storage.refine_pages_per_query": _per(
            counts.get("refine_pages", 0.0), counts.get("queries", 0.0)),
        "storage.fetch_ms": _per(incl_ms("fetch_batch"), n_calls("fetch_batch")),
        "storage.decode_us": _per(
            incl_ms("decode_tuple"), n_calls("decode_tuple"), 1e3),
        "storage.commit_ms": _per(
            incl_ms("commit_planner"), n_calls("commit_planner")),
        "storage.wal_bytes_per_write": _per(
            counts.get("wal_bytes", 0.0), mutations),
        "storage.checkpoints": counts.get("checkpoints", 0.0),
        "storage.checkpoint_ms": _per(
            incl_ms("checkpoint"), n_calls("checkpoint")),
        "shard.fanout_ms": _per(
            counts.get("shard.fanout_s", 0.0) * 1e3, n_calls("query_batch")),
        "shard.merge_ms": _per(
            counts.get("shard.merge_s", 0.0) * 1e3, n_calls("query_batch")),
        "shard.skew": _per(
            counts.get("shard.skew_sum", 0.0), counts.get("shard.skew_n", 0.0)),
    }
    rows = {layer: self_s.get(layer, 0.0) for layer in LAYERS}
    rows["idle"] = idle_s
    rows["unattributed"] = wall_s - sum(rows.values())
    for name, seconds in rows.items():
        out[f"self.{name}"] = _per(seconds * 1e3, ops)
    out["self.wall"] = _per(wall_s * 1e3, ops)
    return out
