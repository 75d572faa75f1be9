"""The benchmark's four workloads.

Each workload function takes ``(seed, seconds, trace, work_dir)`` and
returns a :class:`Measurement`. Input generation happens first and is
never timed; set-up (build, save, open, server ready) is repeated
:data:`SETUPS` times and each repetition is timed; warm-up uses queries
disjoint from the measured stream; answer checks run after the timed
window. With ``trace``, the window is split: an untraced half, then a
half with :class:`layers.LayerTracer` installed, whose per-layer numbers
are reported along with the tracing overhead between the halves.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import inputs
from layers import LayerTracer, layer_metrics, snapshot_delta
from repro.core import DualIndexPlanner
from repro.geometry.predicates import evaluate_relation
from repro.serve.client import SyncReproClient
from repro.serve.protocol import query_to_request
from repro.shard import ShardedDualIndex
from repro.storage import Pager
from repro.storage.checkpoint import open_engine, save_planner
from repro.tune.retune import relation_from_planner
from repro.verify.differential import tuple_to_json
from served import WAL_CHECKPOINT_BYTES, Op, ServerProcess, closed_loop
from stats import Tally, peak_rss_mb

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Oracle-checked answers per run (the exact predicate costs ~0.6 s per
#: query over all 2000 tuples, so the sample is small).
CHECKS = 4
#: serve-rw: one request in this many is a mutation; a commit follows
#: every this many mutations.
WRITE_EVERY = 20
COMMIT_EVERY = 20
#: serve-rw: inserts kept live before deletes start, so a delete hits an
#: insert acknowledged several mutations earlier.
DELETE_LAG = 4
#: serve-cold: the server's peak RSS is read when the stream hands out
#: this many queries. The vector surface keeps one column per distinct
#: slope it has answered, so RSS grows with the queries served; reading
#: it at a fixed count keeps a throughput gain from showing as memory.
RSS_AT_QUERIES = 2000


@dataclass
class Measurement:
    """One run's raw observations (see ``run.py`` for the metrics)."""

    setup_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    #: ``queries / elapsed_s`` is the throughput: served, the windows'
    #: length and the queries answered inside them; in process, the
    #: time spent inside engine calls and the queries they answered.
    elapsed_s: float = 0.0
    queries: int = 0
    tally: Tally = field(default_factory=Tally)
    techniques: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0
    #: Workload-specific end-to-end numbers: name -> (value, unit).
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] | None = None


def _freeze_inputs() -> None:
    """Move everything generated so far out of the collector's reach:
    the benchmark's own inputs must not make the program's garbage
    collections slower."""
    gc.collect()
    gc.freeze()


def _spread(items: list, count: int) -> list:
    """``count`` items evenly spaced over ``items`` (all if fewer)."""
    if len(items) <= count:
        return items
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def _check(samples, tally: Tally, limit: int = CHECKS) -> None:
    """Hold sampled answers to the exact oracle.

    ``samples`` are ``(query, answered ids, state, technique)`` where
    ``state`` is the ``(tid, tuple)`` collection the query was answered
    against. The checks are shared between the techniques that answered
    and spread over the run, so no answer path goes unchecked.
    """
    by_technique: dict[str, list] = {}
    for sample in samples:
        by_technique.setdefault(sample[3], []).append(sample)
    per = max(1, limit // max(1, len(by_technique)))
    for query, ids, state, _technique in itertools.chain.from_iterable(
            _spread(group, per) for group in by_technique.values()):
        expected = evaluate_relation(
            state, query.query_type, query.slope_2d, query.intercept,
            query.theta)
        if set(ids) != expected:
            tally.fail("mismatch")


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
@dataclass
class _Phase:
    elapsed_s: float = 0.0
    ops: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    techniques: Counter = field(default_factory=Counter)
    pages: list[float] = field(default_factory=list)
    samples: list = field(default_factory=list)
    #: Answers counted inside the timed region, which consumes the
    #: lazily materialised results.
    answers: int = 0
    #: What ran, in order (queries or batches), for a traced replay.
    inputs: list = field(default_factory=list)


def _in_process(m: Measurement, run_phase, stream, seconds: float,
                trace: bool, query_probe: str) -> list[_Phase]:
    """The timed window; traced, it replays the untraced half's inputs so
    the overhead compares identical work."""
    if not trace:
        return [run_phase(stream, seconds)]
    plain = run_phase(stream, seconds / 2)
    tracer = LayerTracer(query_probe)
    tracer.install()
    try:
        traced = run_phase(iter(plain.inputs), seconds / 2)
    finally:
        tracer.uninstall()
    m.layers = layer_metrics(tracer.snapshot(), traced.elapsed_s, traced.ops,
                             traced.ops, 0, served=False)
    k = traced.ops
    m.layers["obs.trace_overhead_frac"] = (
        sum(traced.latencies_ms[:k]) / sum(plain.latencies_ms[:k]) - 1.0)
    return [plain, traced]


def _summarise(m: Measurement, phases: list[_Phase], per_batch: int = 1) -> None:
    for phase in phases:
        m.latencies_ms += phase.latencies_ms
        m.techniques.update(phase.techniques)
    # One caller with its inputs ready: throughput is queries per second
    # spent inside the engine call.
    m.elapsed_s = sum(sum(p.latencies_ms) for p in phases) / 1e3 / per_batch
    m.queries = sum(p.ops for p in phases)
    m.tally.attempted = m.queries
    pages = [x for p in phases for x in p.pages]
    m.extras["pages_per_query"] = (statistics.mean(pages) / per_batch, "pages")


def planner_paper(seed: int, seconds: float, trace: bool,
                  work_dir: str) -> Measurement:
    """``DualIndexPlanner.query``, one query at a time (T1/T2 + refine).

    The run cycles through one balanced block of sixteen queries (about
    eleven seconds of work) and stops only at the end of a pass, so every
    run measures whole blocks of the same mix and lasts at least
    ``seconds``; the planner keeps no result cache, so a repeat costs
    what the first execution did.
    """
    relation = inputs.relation(seed)
    block = inputs.paper_block(relation, seed)
    stream = itertools.cycle(block)
    warm = inputs.paper_block(relation, f"warm{seed}")[:2]
    _freeze_inputs()
    m = Measurement()
    planner = None
    for _ in range(SETUPS):
        planner = None
        copy = inputs.cold_copy(relation)
        started = time.perf_counter()
        planner = DualIndexPlanner.build(copy, inputs.slope_set(),
                                         pager=Pager(), key_bytes=4)
        m.setup_s.append(time.perf_counter() - started)
        del copy
    for query in warm:
        planner.query(query)

    def run_phase(queries, budget: float) -> _Phase:
        phase = _Phase()
        started = time.perf_counter()
        deadline = started + budget
        # Whole blocks only: a partial pass would weigh the run by
        # whichever queries it happened to reach.
        while (time.perf_counter() < deadline
               or len(phase.inputs) % len(block)):
            query = next(queries, None)
            if query is None:
                break
            phase.inputs.append(query)
            sent = time.perf_counter()
            result = planner.query(query)
            phase.latencies_ms.append((time.perf_counter() - sent) * 1e3)
            phase.techniques[result.technique] += 1
            phase.pages.append(result.page_accesses)
            phase.samples.append((query, result.ids, result.technique))
        phase.elapsed_s = time.perf_counter() - started
        phase.ops = len(phase.latencies_ms)
        return phase

    phases = _in_process(m, run_phase, stream, seconds, trace, "query")
    _summarise(m, phases)
    m.peak_rss_mb = peak_rss_mb()
    _check([(q, ids, relation, t) for p in phases for q, ids, t in p.samples],
           m.tally)
    return m


def batch_sharded(seed: int, seconds: float, trace: bool,
                  work_dir: str) -> Measurement:
    """``ShardedDualIndex.query_batch`` (2 shards, thread fan-out)."""
    relation = inputs.relation(seed)
    stream = inputs.batch_stream(relation, seed)
    warm = itertools.islice(inputs.batch_stream(relation, f"warm{seed}"), 4)
    _freeze_inputs()
    m = Measurement()
    engine = None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
            engine = None
        copy = inputs.cold_copy(relation)
        started = time.perf_counter()
        engine = ShardedDualIndex.build(copy, inputs.slope_set(), shards=2)
        m.setup_s.append(time.perf_counter() - started)
        del copy
    for batch in warm:
        engine.query_batch(batch)

    def run_phase(batches, budget: float) -> _Phase:
        phase = _Phase()
        started = time.perf_counter()
        deadline = started + budget
        while time.perf_counter() < deadline:
            batch = next(batches, None)
            if batch is None:
                break
            phase.inputs.append(batch)
            sent = time.perf_counter()
            result = engine.query_batch(batch)
            phase.answers += sum(r.answer_count for r in result.results)
            latency = (time.perf_counter() - sent) * 1e3
            # A query's latency is its batch's latency.
            phase.latencies_ms += [latency] * len(batch)
            phase.techniques.update(r.technique for r in result.results)
            phase.pages.append(result.page_accesses)
            if len(phase.inputs) % 16 == 1:
                phase.samples += [
                    (batch[i], result.results[i].ids,
                     result.results[i].technique) for i in (0, -1)]
        phase.elapsed_s = time.perf_counter() - started
        phase.ops = len(phase.latencies_ms)
        return phase

    try:
        phases = _in_process(m, run_phase, stream, seconds, trace,
                             "query_batch")
    finally:
        engine.close()
    _summarise(m, phases, per_batch=64)
    m.peak_rss_mb = peak_rss_mb()
    _check([(q, ids, relation, t) for p in phases for q, ids, t in p.samples],
           m.tally)
    return m


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
class _QueryStream:
    """A fixed query list; keeps every 61st answer for the checks (a
    period prime to the streams' own, so every answer path is sampled).

    With ``mark``, it calls ``mark()`` once, as it hands out query
    number :data:`RSS_AT_QUERIES`, and keeps the result in ``marked``.
    """

    def __init__(self, queries, mark=None) -> None:
        self._queries = iter(queries)
        self._issued = 0
        self._answered = 0
        self._mark = mark
        self.marked = None
        self.samples: list = []

    def next_op(self) -> Op | None:
        query = next(self._queries, None)
        if query is None:
            return None
        self._issued += 1
        if self._mark is not None and self._issued == RSS_AT_QUERIES:
            self.marked = self._mark()
        return Op("query", query_to_request(query, rid=0), query=query)

    def done(self, op: Op, response: dict) -> None:
        if response.get("ok"):
            if self._answered % 61 == 0:
                self.samples.append(
                    (op.query, response["ids"], response["technique"]))
            self._answered += 1


class _ReadWriteStream:
    """serve-rw traffic: Zipf reads over a fixed pool, one mutation per
    :data:`WRITE_EVERY` requests (insert / delete of an earlier insert,
    alternating), a commit after every :data:`COMMIT_EVERY` mutations.

    It keeps the acknowledged mutation log, so every state the server
    passed through can be rebuilt for the answer checks: a read sent and
    answered while no mutation was in flight saw exactly the state after
    the ``epoch`` acknowledged mutations at its send time.
    """

    def __init__(self, pool, zipf: inputs.Zipf, fresh, first_tid: int) -> None:
        self._pool = pool
        self._zipf = zipf
        self._fresh = iter(fresh)
        self._tids = itertools.count(first_tid)
        self._issued = 0
        self._mutations = 0
        self._commit_due = False
        self._live: list[int] = []
        self._inflight_writes = 0
        self._reads = 0
        #: Acknowledged mutations in order: (kind, tid, tuple or None).
        self.log: list[tuple[str, int, object]] = []
        self.samples: list = []
        #: Length of ``log`` when the last commit was acknowledged.
        self.committed = 0

    def next_op(self) -> Op | None:
        self._issued += 1
        if self._commit_due:
            self._commit_due = False
            return self.commit()
        if self._issued % WRITE_EVERY:
            query = self._pool[self._zipf.draw()]
            return Op("query", query_to_request(query, rid=0), query=query,
                      epoch=None if self._inflight_writes else len(self.log))
        return self.mutation()

    def commit(self) -> Op:
        return self._write(Op("commit", {"op": "commit"}))

    def mutation(self) -> Op | None:
        """The next insert or delete (also used after the timed run)."""
        self._mutations += 1
        if self._mutations % COMMIT_EVERY == 0:
            self._commit_due = True
        if self._mutations % 2 == 0 and len(self._live) > DELETE_LAG:
            tid = self._live.pop(0)
            return self._write(Op("delete", {"op": "delete", "tid": tid},
                                  tid=tid))
        t = next(self._fresh, None)
        if t is None:
            return None
        tid = next(self._tids)
        return self._write(Op("insert", {"op": "insert", "tid": tid,
                                         "tuple": tuple_to_json(t)["atoms"]},
                              tid=tid, payload=t))

    def _write(self, op: Op) -> Op:
        self._inflight_writes += 1
        return op

    def done(self, op: Op, response: dict) -> None:
        if op.kind == "query":
            if (response.get("ok") and op.epoch is not None
                    and not self._inflight_writes
                    and op.epoch == len(self.log)):
                if self._reads % 31 == 0:
                    self.samples.append((op.query, response["ids"], op.epoch,
                                         response["technique"]))
                self._reads += 1
            return
        self._inflight_writes -= 1
        if not response.get("ok"):
            return
        if op.kind == "commit":
            self.committed = len(self.log)
            return
        self.log.append((op.kind, op.tid, op.payload))
        if op.kind == "insert":
            self._live.append(op.tid)


def _state(relation, log, upto: int) -> dict:
    """tid -> tuple after the first ``upto`` acknowledged mutations."""
    state = dict(relation)
    for kind, tid, t in log[:upto]:
        if kind == "insert":
            state[tid] = t
        else:
            state.pop(tid, None)
    return state


def _serve_setups(m: Measurement, relation, work_dir: str, dynamic: bool,
                  trace: bool) -> list[ServerProcess]:
    """Time :data:`SETUPS` build → save → serve → ready cycles; keep the
    last server running (plus, with ``trace``, one more, traced)."""
    servers: list[ServerProcess] = []
    try:
        for i in range(SETUPS + trace):
            traced = i == SETUPS
            data_dir = os.path.join(work_dir, f"data{i}")
            copy = inputs.cold_copy(relation)
            started = time.perf_counter()
            planner = DualIndexPlanner.build(
                copy, inputs.slope_set(), pager=Pager(), key_bytes=4,
                dynamic=dynamic)
            save_planner(planner, data_dir)
            servers.append(ServerProcess(data_dir, work_dir, trace=traced))
            if not traced:
                m.setup_s.append(time.perf_counter() - started)
            del planner, copy
            if len(servers) > 1 and not traced:
                servers.pop(0).stop()
    except BaseException:
        for server in servers:
            server.kill()
        raise
    return servers


def _served_phase(m: Measurement, server: ServerProcess, stream,
                  seconds: float, traced: bool):
    """One timed closed-loop window; returns (loop result, layer delta,
    server wall seconds of the window)."""
    before = server.snapshot()
    loop = closed_loop(server.port, stream, seconds)
    after = server.snapshot()
    marked = getattr(stream, "marked", None)
    rss = after if marked is None else server.snapshot_line(marked)
    m.peak_rss_mb = max(m.peak_rss_mb, rss["rss_mb"])
    if loop.exhausted:
        m.extras["stream_ran_dry"] = (1.0, "flag")
    m.techniques.update(loop.techniques)
    for code, count in loop.errors.items():
        m.tally.fail(code.lower(), count)
    m.tally.attempted += loop.completed
    delta = snapshot_delta(before["layers"], after["layers"]) if traced \
        else None
    return loop, delta, after["t"] - before["t"]


def _served(m: Measurement, servers: list[ServerProcess], make_stream,
            seconds: float, trace: bool) -> list:
    """Run the timed window(s); returns [(loop, stream), ...]. Traced,
    the second server replays the first one's stream.
    ``make_stream(server)`` makes the stream that runs against
    ``server``."""
    if not trace:
        stream = make_stream(servers[-1])
        loop, _, _ = _served_phase(m, servers[-1], stream, seconds, False)
        return [(loop, stream)]
    plain_stream, traced_stream = make_stream(servers[0]), make_stream(
        servers[1])
    plain, _, _ = _served_phase(m, servers[0], plain_stream, seconds / 2, False)
    traced, delta, wall = _served_phase(m, servers[1], traced_stream,
                                        seconds / 2, True)
    queries = len(traced.latencies_ms.get("query", []))
    mutations = sum(len(traced.latencies_ms.get(k, []))
                    for k in ("insert", "delete"))
    m.layers = layer_metrics(delta, wall, traced.completed, queries,
                             mutations, served=True)
    m.layers["obs.trace_overhead_frac"] = (
        sum(plain.in_window.values()) / sum(traced.in_window.values()) - 1.0)
    return [(plain, plain_stream), (traced, traced_stream)]


def _summarise_served(m: Measurement, runs) -> None:
    for loop, _stream in runs:
        m.latencies_ms += loop.latencies_ms.get("query", [])
        m.elapsed_s += loop.window_s
        m.queries += loop.in_window.get("query", 0)


def serve_cold(seed: int, seconds: float, trace: bool,
               work_dir: str) -> Measurement:
    """Distinct queries over 2 closed-loop connections, read-only."""
    relation = inputs.relation(seed)
    count = int(seconds * 1200) + 64
    queries = inputs.cold_stream(relation, count, seed)
    warm = inputs.cold_stream(relation, 256, f"warm{seed}")
    _freeze_inputs()
    m = Measurement()
    servers = _serve_setups(m, relation, work_dir, dynamic=False,
                            trace=trace)
    try:
        for server in servers:
            closed_loop(server.port, _QueryStream(warm), seconds)
        runs = _served(
            m, servers,
            lambda server: _QueryStream(queries, server.request_snapshot),
            seconds, trace)
    finally:
        for server in servers:
            server.stop()
    _summarise_served(m, runs)
    _check([(q, ids, relation, t) for _loop, st in runs
            for q, ids, t in st.samples], m.tally)
    return m


def serve_rw(seed: int, seconds: float, trace: bool,
             work_dir: str) -> Measurement:
    """Zipf reads plus inserts/deletes/commits on a durable dynamic engine."""
    relation = inputs.relation(seed)
    pool = inputs.skewed_pool(relation, 128, seed)
    warm = inputs.skewed_pool(relation, 64, f"warm{seed}")
    fresh = inputs.fresh_tuples(int(seconds * 40) + 16, seed)
    _freeze_inputs()
    m = Measurement()
    m.extras["wal_checkpoint_kib"] = (WAL_CHECKPOINT_BYTES / 1024, "KiB")
    servers = _serve_setups(m, relation, work_dir, dynamic=True,
                            trace=trace)

    def make_stream(_server) -> _ReadWriteStream:
        return _ReadWriteStream(pool, inputs.Zipf(len(pool), seed), fresh,
                                len(relation))

    try:
        for server in servers:
            closed_loop(server.port, _QueryStream(warm), min(1.0, seconds / 4))
        runs = _served(m, servers, make_stream, seconds, trace)
        final = _final_checks(m, servers[-1], relation, runs[-1][1], pool)
    finally:
        for server in servers:
            server.kill()
    _summarise_served(m, runs)
    writes = [x for loop, _ in runs for k in ("insert", "delete")
              for x in loop.latencies_ms.get(k, [])]
    commits = [x for loop, _ in runs for x in loop.latencies_ms.get("commit", [])]
    if writes:
        m.extras["write_p50_ms"] = (statistics.median(writes), "ms")
    if commits:
        m.extras["commit_p50_ms"] = (statistics.median(commits), "ms")
    m.extras["writes"] = (float(len(writes)), "count")
    during = [(q, ids, _state(relation, stream.log, epoch).items(), t)
              for _loop, stream in runs for q, ids, epoch, t in stream.samples]
    _check(during, m.tally, CHECKS // 2)
    _check(final, m.tally)
    return m


def _final_checks(m: Measurement, server: ServerProcess, relation,
                  stream: _ReadWriteStream, pool) -> list:
    """After the timed window: final answers and the durability check.

    Returns final-state answer samples; durability losses go straight
    to the tally. The SIGKILL comes after a commit and two further
    mutations: the reopened engine must hold every mutation up to the
    commit exactly, while the two later ones may or may not survive.
    """
    client = SyncReproClient("127.0.0.1", server.port)
    state = _state(relation, stream.log, len(stream.log)).items()
    ops = [Op("query", query_to_request(q, rid=0), query=q)
           for q in pool[:CHECKS // 2]]
    ops += [op for op in (stream.commit(), stream.mutation(),
                          stream.mutation()) if op is not None]
    samples = []
    try:
        for op in ops:
            response = client.request(op.envelope)
            m.tally.attempted += 1
            if not response.get("ok"):
                m.tally.fail(response["error"]["code"].lower())
            elif op.kind == "query":
                samples.append((op.query, response["ids"], state,
                                response["technique"]))
            if op.kind != "query":
                stream.done(op, response)
    finally:
        client.close()
    committed = _state(relation, stream.log, stream.committed)
    touched_after = {tid for _k, tid, _t in stream.log[stream.committed:]}
    server.kill()
    reopened = open_engine(server.data_dir)
    try:
        survived = dict(relation_from_planner(reopened))
    finally:
        reopened.index.pager.disk.close()
    lost = sum(1 for tid, t in committed.items()
               if tid not in touched_after and survived.get(tid) != t)
    resurrected = sum(1 for tid in survived
                      if tid not in committed and tid not in touched_after)
    m.tally.fail("lost_write", lost + resurrected)
    return samples


WORKLOADS = {
    "serve-cold": serve_cold,
    "planner-paper": planner_paper,
    "serve-rw": serve_rw,
    "batch-sharded": batch_sharded,
}
