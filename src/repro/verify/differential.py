"""The differential runner: every query path against two oracles.

One round builds a fresh workload (:mod:`repro.verify.workload`) and
answers every query through each production path —

* restricted-slope B+-tree sweeps / T1 app-queries (a T1 planner),
* T2 two-sweep interior approximation (a T2 planner),
* the R+-tree baseline (bounded-only rounds),
* the vectorized :class:`~repro.geometry.vectorized.DualSurface`,
* the :class:`~repro.exec.BatchExecutor`, cache cold *and* hot,
* the :class:`~repro.shard.ShardedDualIndex` (2 shards), direct and
  batched — sharded answers must be bit-identical to unsharded,
* the explain-instrumented path (:func:`repro.obs.explain.traced_answer`
  — the same query under a trace with checked exclusive/inclusive
  attribution; observability must never change answers) —

comparing each answer set **strictly** against the exact geometric
oracle (:func:`repro.geometry.predicates.evaluate_relation`, minus the
tuples the index legitimately skips), and comparing the geometric oracle
against the LP-backed :class:`~repro.verify.oracle.BruteForceOracle`
with a small waiver band around decision boundaries (HiGHS solves to
~1e-9; a query engineered to sit *exactly* on ``TOP^P(s)`` may land on
either side of ``ORACLE_TOL`` — those per-tuple flips are counted as
``fuzz_waivers``, not bugs). Mutation rounds interleave inserts/deletes
on a dynamic index; fault rounds arm the fault-injection pager and
assert a clean typed error plus untouched state; recovery rounds build
a durable engine on a WAL-mode :class:`~repro.storage.FileDisk`, crash
it mid-WAL-append or mid-checkpoint, reopen the directory, and hold the
recovered engine to the same oracle over the committed live set.

Any finding is minimised by greedy delta debugging (drop tuples, then
queries, re-running the check) and written as a replayable JSON repro;
:func:`replay_repro` re-executes one.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.constraints.linear import LinearConstraint
from repro.constraints.tuples import GeneralizedTuple
from repro.core.planner import DualIndexPlanner
from repro.core.query import EXIST, HalfPlaneQuery
from repro.errors import FaultInjectedError, ReproError, VerificationError
from repro.geometry.predicates import evaluate_relation
from repro.geometry.vectorized import DualSurface
from repro.obs import trace as obs
from repro.obs.explain import traced_answer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.rtree.planner import RTreePlanner
from repro.shard.sharded import ShardedDualIndex
from repro.storage.checkpoint import open_planner
from repro.storage.disk import DiskSimulator
from repro.storage.filepager import FileDisk
from repro.storage.pager import Pager
from repro.verify import workload
from repro.verify.faults import CrashPoint, FaultInjectingPager, arm_crash
from repro.verify.invariants import (
    check_buffer_pool,
    check_dual_index,
    check_envelopes,
)
from repro.verify.oracle import BruteForceOracle

#: Relative half-width of the LP-vs-geometric waiver band: per-tuple
#: disagreements whose deciding TOP/BOT value lies within this distance
#: of the query intercept are tolerance artifacts, not bugs.
BOUNDARY_BAND = 1e-4

#: Default predefined slope set for fuzz rounds.
DEFAULT_SLOPES = (-2.0, -0.5, 0.5, 2.0)


# ----------------------------------------------------------------------
# configuration / report
# ----------------------------------------------------------------------
@dataclass
class FuzzConfig:
    """Knobs of one fuzz run; everything derives from ``seed``."""

    seed: int = 0
    budget_seconds: float = 5.0
    max_rounds: int = 10_000
    n_tuples: int = 14
    queries_per_round: int = 12
    slopes: tuple[float, ...] = DEFAULT_SLOPES
    unbounded_fraction: float = 0.2
    singleton_fraction: float = 0.1
    empty_fraction: float = 0.05
    #: Every Nth round restricts to bounded tuples and adds the R+-tree.
    rtree_every: int = 2
    #: Every Nth round runs insert/delete interleavings on a dynamic index.
    mutation_every: int = 4
    #: Every Nth round arms the fault-injection pager.
    fault_every: int = 5
    #: Every Nth round crashes a durable engine mid-write and recovers it
    #: (prime, so it rarely collides with the other specialised rounds).
    recovery_every: int = 7
    check_invariants: bool = True
    out_dir: str = "fuzz-repros"


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    rounds: int = 0
    queries: int = 0
    comparisons: int = 0
    waivers: int = 0
    faults_injected: int = 0
    crashes_recovered: int = 0
    disagreements: list = field(default_factory=list)
    repro_paths: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every path agreed on every query."""
        return not self.disagreements

    def summary(self) -> str:
        """One human line for CLI / CI logs."""
        verdict = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENTS"
        return (
            f"fuzz seed={self.seed}: {self.rounds} rounds, "
            f"{self.queries} queries, {self.comparisons} comparisons, "
            f"{self.waivers} boundary waivers, "
            f"{self.faults_injected} faults injected, "
            f"{self.crashes_recovered} crashes recovered — {verdict} "
            f"({self.elapsed:.1f}s)"
        )


# ----------------------------------------------------------------------
# JSON (de)serialisation for repro files
# ----------------------------------------------------------------------
def tuple_to_json(t: GeneralizedTuple) -> dict:
    """A tuple's atom system as plain JSON."""
    return {
        "label": t.label,
        "atoms": [
            {
                "coeffs": list(a.coeffs),
                "const": a.const,
                "theta": a.theta.value,
            }
            for a in t.constraints
        ],
    }


def tuple_from_json(data: dict) -> GeneralizedTuple:
    """Inverse of :func:`tuple_to_json`."""
    return GeneralizedTuple(
        [
            LinearConstraint(tuple(a["coeffs"]), a["const"], a["theta"])
            for a in data["atoms"]
        ],
        label=data.get("label"),
    )


def query_to_json(q: HalfPlaneQuery) -> dict:
    """A 2-D half-plane query as plain JSON."""
    return {
        "query_type": q.query_type,
        "slope": q.slope_2d,
        "intercept": q.intercept,
        "theta": q.theta.value,
    }


def query_from_json(data: dict) -> HalfPlaneQuery:
    """Inverse of :func:`query_to_json`."""
    return HalfPlaneQuery(
        data["query_type"], data["slope"], data["intercept"], data["theta"]
    )


def write_repro(payload: dict, out_dir: str, stem: str) -> str:
    """Write one repro JSON, returning its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


# ----------------------------------------------------------------------
# the core check: one (tuples, queries) case through every path
# ----------------------------------------------------------------------
def run_checks(
    tuples: Sequence[GeneralizedTuple],
    queries: Sequence[HalfPlaneQuery],
    slopes: Sequence[float] = DEFAULT_SLOPES,
    include_rtree: bool = False,
    check_invariants: bool = True,
    oracle: BruteForceOracle | None = None,
    registry: MetricsRegistry | None = None,
) -> list[dict]:
    """Cross-check one case; returns JSON-serialisable findings (``[]`` = ok).

    The strict reference for every index path is the exact geometric
    oracle minus legitimately skipped (empty) tuples; the LP oracle is
    compared with the :data:`BOUNDARY_BAND` waiver.
    """
    registry = registry if registry is not None else get_registry()
    relation = workload.as_relation(tuples)
    satisfiable = {tid: t for tid, t in relation if t.is_satisfiable()}
    skipped = {tid for tid, _ in relation} - set(satisfiable)
    findings: list[dict] = []

    t1 = DualIndexPlanner.build(relation, slopes, technique="T1")
    t2 = DualIndexPlanner.build(relation, slopes, technique="T2")
    if set(t2.index.skipped) != skipped:
        findings.append(
            {
                "kind": "skip-divergence",
                "index_skipped": sorted(t2.index.skipped),
                "oracle_skipped": sorted(skipped),
            }
        )
    rtree = RTreePlanner.build(relation) if include_rtree else None
    surface = DualSurface.from_items(sorted(satisfiable.items()))
    batch_cold = t2.query_batch(list(queries))
    batch_hot = t2.query_batch(list(queries))
    sharded = ShardedDualIndex.build(relation, slopes, shards=2)
    sharded_batch = sharded.query_batch(list(queries))
    # Served engine: the same queries through a real localhost server
    # socket — framing, envelope validation, coalescing, and the engine
    # thread all sit between the question and the answer, and none of
    # them may change it. A dedicated planner keeps the first pass
    # genuinely cache-cold; the second pass goes through the executor's
    # result cache behind the server.
    from repro.serve.testing import ServerThread

    served_engine = DualIndexPlanner.build(relation, slopes, technique="T2")
    with ServerThread(engine=served_engine, max_delay=0.0) as server:
        client = server.client()
        try:
            served_cold = [client.query_ids(q) for q in queries]
            served_hot = [client.query_ids(q) for q in queries]
        finally:
            client.close()

    # Tuned engine: the T2 planner rebuilt under a slope set *learned*
    # from this case's own query slopes (repro.tune). Tuning is a cost
    # transformation — a learned S may change page counts, never
    # answers — so the rebuilt engine faces the same strict oracle.
    from repro.obs.slopelog import SlopeLog
    from repro.tune import learn_slopes, rebuild_planner

    tuned = None
    tune_log = SlopeLog(capacity=256)
    for q in queries:
        tune_log.record(q.slope_2d, q.query_type)
    if tune_log.count:
        tuned = rebuild_planner(
            t2, learn_slopes(tune_log.snapshot(), k=len(list(slopes)))
        )

    lp = oracle if oracle is not None else BruteForceOracle()
    comparisons = 0
    for position, q in enumerate(queries):
        geo_full = evaluate_relation(
            relation, q.query_type, q.slope_2d, q.intercept, q.theta
        )
        expected = geo_full - skipped
        answers = {
            "t1-planner": t1.query(q).ids,
            "t2-planner": t2.query(q).ids,
            "vector": surface.answer(
                q.query_type, q.slope_2d, q.intercept, q.theta
            ),
            "batch-cold": batch_cold.results[position].ids,
            "batch-hot": batch_hot.results[position].ids,
            "sharded": sharded.query(q).ids,
            "sharded-batch": sharded_batch.results[position].ids,
            "served-cold": served_cold[position],
            "served-hot": served_hot[position],
        }
        if tuned is not None:
            answers["tuned"] = tuned.query(q).ids
        if obs.current() is None:
            # Explain-instrumented path: the same query under a trace
            # with checked attribution must never change the answer
            # (skipped when a trace is already active — they don't nest).
            answers["explain"] = traced_answer(t2, q).ids
        if rtree is not None:
            answers["rtree"] = rtree.query(q).ids
        for path, got in answers.items():
            comparisons += 1
            if got != expected:
                findings.append(
                    {
                        "kind": "path-divergence",
                        "path": path,
                        "query": query_to_json(q),
                        "missing": sorted(expected - got),
                        "extra": sorted(got - expected),
                    }
                )
        # LP oracle vs geometry, boundary flips waived.
        comparisons += 1
        lp_ids = lp.answer(relation, q)
        for tid in geo_full ^ lp_ids:
            distance = (
                lp.boundary_distance(q, satisfiable[tid])
                if tid in satisfiable
                else 0.0
            )
            if tid in skipped or distance <= BOUNDARY_BAND * max(
                1.0, abs(q.intercept)
            ):
                registry.counter(
                    "fuzz_waivers", "LP-vs-geometric boundary waivers"
                ).inc()
                _WAIVERS.append(1)
            else:
                findings.append(
                    {
                        "kind": "oracle-divergence",
                        "query": query_to_json(q),
                        "tuple_id": tid,
                        "in_geometric": tid in geo_full,
                        "in_lp": tid in lp_ids,
                        "boundary_distance": distance,
                    }
                )

    sharded.close()
    if check_invariants:
        try:
            check_dual_index(t2.index)
            check_buffer_pool(t2.index.pager.buffer)
            for t in satisfiable.values():
                check_envelopes(t)
        except VerificationError as exc:
            findings.append({"kind": "invariant", "message": str(exc)})

    _COMPARISONS.append(comparisons)
    return findings


#: Side-channel tallies run_checks leaves for the runner (reset per call
#: site); module-level so minimization replays don't need plumbing.
_COMPARISONS: list[int] = []
_WAIVERS: list[int] = []


def _drain(counter: list[int]) -> int:
    total = sum(counter)
    counter.clear()
    return total


# ----------------------------------------------------------------------
# mutation rounds: insert/delete interleavings on a dynamic index
# ----------------------------------------------------------------------
def mutation_round(
    rng: random.Random,
    slopes: Sequence[float],
    n_tuples: int,
    n_queries: int,
    check_invariants: bool = True,
) -> list[dict]:
    """Interleave deletes/inserts with queries on a dynamic index.

    Inserts draw from the whole :func:`workload.make_tuples` mix
    (unbounded, vertex-free and single-point tuples included). After
    every mutation step the planner and its batch executor must match
    the geometric oracle over the *live* tuple set, and the index
    version must have advanced (stale cached answers are the regression
    this guards). The batch runs first, so it answers on the patched
    dual surface while the update's handicap leaves are still dirty.
    """
    tuples = workload.make_tuples(
        rng, n_tuples, unbounded_fraction=0.15, singleton_fraction=0.1,
        empty_fraction=0.0,
    )
    relation = workload.as_relation(tuples)
    planner = DualIndexPlanner.build(
        relation, slopes, technique="T2", dynamic=True
    )
    live = dict(iter(relation))
    next_tid = max(live) + 1
    queries = workload.random_queries(rng, n_queries, slopes)
    findings: list[dict] = []
    planner.query_batch(queries)  # builds the surface every step patches
    for _step in range(3):
        version_before = planner.index.version
        for tid in rng.sample(sorted(live), k=min(2, max(0, len(live) - 1))):
            planner.delete(tid)
            del live[tid]
        for t in workload.make_tuples(
            rng, 2, unbounded_fraction=0.3, singleton_fraction=0.2,
            empty_fraction=0.0,
        ):
            planner.insert(next_tid, t)
            live[next_tid] = t
            next_tid += 1
        if planner.index.version <= version_before:
            findings.append(
                {
                    "kind": "version-not-bumped",
                    "before": version_before,
                    "after": planner.index.version,
                }
            )
        pairs = sorted(live.items())
        batch = planner.query_batch(queries)
        for q, batch_result in zip(queries, batch.results):
            expected = evaluate_relation(
                pairs, q.query_type, q.slope_2d, q.intercept, q.theta
            )
            batched = batch_result.ids
            direct = planner.query(q).ids
            for path, got in (("dynamic", direct), ("dynamic-batch", batched)):
                if got != expected:
                    findings.append(
                        {
                            "kind": "path-divergence",
                            "path": path,
                            "query": query_to_json(q),
                            "missing": sorted(expected - got),
                            "extra": sorted(got - expected),
                        }
                    )
    if check_invariants:
        try:
            check_dual_index(planner.index)
        except VerificationError as exc:
            findings.append({"kind": "invariant", "message": str(exc)})
    return findings


# ----------------------------------------------------------------------
# fault rounds / the checked-in fault demo
# ----------------------------------------------------------------------
def fault_round(
    rng: random.Random, slopes: Sequence[float], n_tuples: int = 6
) -> tuple[list[dict], int]:
    """Arm the fault pager mid-query stream; the index must surface a
    clean :class:`~repro.errors.FaultInjectedError` and keep answering
    correctly once disarmed. Returns ``(findings, faults_injected)``."""
    tuples = [workload.bounded_tuple(rng) for _ in range(n_tuples)]
    relation = workload.as_relation(tuples)
    pager = FaultInjectingPager(seed=rng.randrange(2**31))
    pager.armed = False
    planner = DualIndexPlanner.build(relation, slopes, pager=pager)
    queries = workload.random_queries(rng, 6, slopes)
    findings: list[dict] = []
    faults = 0
    for q in queries:
        pager.reads_seen = 0
        pager.fail_read_at = frozenset({rng.randrange(3)})
        pager.armed = True
        try:
            planner.query(q)
        except FaultInjectedError:
            faults += 1
        except ReproError as exc:
            findings.append(
                {
                    "kind": "unclean-fault",
                    "query": query_to_json(q),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        finally:
            pager.armed = False
        expected = evaluate_relation(
            relation, q.query_type, q.slope_2d, q.intercept, q.theta
        )
        got = planner.query(q).ids
        if got != expected:
            findings.append(
                {
                    "kind": "state-corruption-after-fault",
                    "query": query_to_json(q),
                    "missing": sorted(expected - got),
                    "extra": sorted(got - expected),
                }
            )
    return findings, faults


def run_fault_scenario(
    seed: int = 0, out_dir: str = "fuzz-repros"
) -> tuple[FaultInjectedError, str]:
    """The acceptance-criterion demo: inject one read fault, verify the
    clean typed error and untouched state, minimise the tuple set, and
    write a replayable fault-repro JSON. Returns ``(error, repro_path)``.
    """
    rng = random.Random(seed)
    tuples = [workload.bounded_tuple(rng) for _ in range(6)]
    query = HalfPlaneQuery(EXIST, DEFAULT_SLOPES[0], 0.0, ">=")

    def fires_cleanly(ts: Sequence[GeneralizedTuple]) -> bool:
        error, clean = _inject_once(list(ts), query, op_index=0)
        return error is not None and clean

    if not fires_cleanly(tuples):
        raise VerificationError(
            "fault scenario did not produce a clean typed error"
        )
    tuples = _minimize_list(list(tuples), fires_cleanly)
    error, _clean = _inject_once(tuples, query, op_index=0)
    assert error is not None
    payload = {
        "kind": "fault",
        "seed": seed,
        "slopes": list(DEFAULT_SLOPES),
        "tuples": [tuple_to_json(t) for t in tuples],
        "query": query_to_json(query),
        "fault": {"op": "read", "op_index": 0},
        "error": {
            "type": type(error).__name__,
            "op": error.op,
            "op_index": error.op_index,
        },
    }
    path = write_repro(payload, out_dir, f"fault-seed{seed}")
    get_registry().counter(
        "fuzz_faults_injected", "Storage faults injected by repro.verify"
    ).inc()
    return error, path


def _inject_once(
    tuples: list[GeneralizedTuple],
    query: HalfPlaneQuery,
    op_index: int,
    slopes: Sequence[float] = DEFAULT_SLOPES,
) -> tuple[FaultInjectedError | None, bool]:
    """Build on a fault pager, fail read ``op_index`` of one query.

    Returns ``(error or None, state_clean_afterwards)``.
    """
    relation = workload.as_relation(tuples)
    pager = FaultInjectingPager()
    pager.armed = False
    planner = DualIndexPlanner.build(relation, slopes, pager=pager)
    pager.reads_seen = 0
    pager.fail_read_at = frozenset({op_index})
    pager.armed = True
    error: FaultInjectedError | None = None
    try:
        planner.query(query)
    except FaultInjectedError as exc:
        error = exc
    finally:
        pager.armed = False
    expected = evaluate_relation(
        relation, query.query_type, query.slope_2d, query.intercept, query.theta
    )
    clean = planner.query(query).ids == expected
    return error, clean


# ----------------------------------------------------------------------
# recovery rounds (crash the durable engine, reopen, re-verify)
# ----------------------------------------------------------------------
def _apply_ops(planner, live: dict, ops: Sequence, next_tid: int) -> int:
    """Apply JSON mutation ops (``["insert", tuple] | ["delete", tid]``)
    to a dynamic planner, mirroring them in ``live``; returns next_tid."""
    for op in ops:
        if op[0] == "insert":
            t = tuple_from_json(op[1])
            planner.insert(next_tid, t)
            live[next_tid] = t
            next_tid += 1
        else:
            tid = int(op[1])
            planner.delete(tid)
            del live[tid]
    return next_tid


def make_recovery_case(
    rng: random.Random,
    slopes: Sequence[float],
    n_tuples: int,
    n_queries: int,
    crash: CrashPoint | None = None,
) -> dict:
    """Generate one replayable recovery case (all-bounded tuples so the
    committed live set is exactly what the index must hold back)."""
    tuples = [workload.bounded_tuple(rng) for _ in range(n_tuples)]
    alive = list(range(n_tuples))
    next_tid = n_tuples

    def gen_ops(n_ops: int) -> list:
        nonlocal next_tid
        ops: list = []
        for _ in range(n_ops):
            if len(alive) > 1 and rng.random() < 0.4:
                tid = alive.pop(rng.randrange(len(alive)))
                ops.append(["delete", tid])
            else:
                ops.append(
                    ["insert", tuple_to_json(workload.bounded_tuple(rng))]
                )
                alive.append(next_tid)
                next_tid += 1
        return ops

    committed = gen_ops(3)
    crashed = gen_ops(3)
    if crash is None:
        point = rng.choice(("wal-append", "checkpoint"))
        at = rng.randrange(1, 5) if point == "wal-append" else rng.randrange(3)
        crash = CrashPoint(point, at)
    return {
        "kind": "recovery",
        "slopes": list(slopes),
        "tuples": [tuple_to_json(t) for t in tuples],
        "committed": committed,
        "crashed": crashed,
        "crash": crash.to_json(),
        "queries": [
            query_to_json(q)
            for q in workload.random_queries(rng, n_queries, slopes)
        ],
    }


def run_recovery_case(
    data: dict, keep_crashed_dir: str | None = None
) -> list[dict]:
    """Execute one recovery case; returns findings (``[]`` = ok).

    Builds a dynamic planner on a WAL-mode :class:`FileDisk` (checking
    its accounting stays bit-identical to a :class:`DiskSimulator` twin
    over the same build + queries), saves, applies committed mutations,
    commits, then arms the recorded :class:`CrashPoint` and applies the
    doomed mutations. After the injected crash the directory is reopened
    from disk and the recovered engine is checked against the geometric
    oracle over the exact live set durability semantics dictate: a torn
    WAL append rolls the doomed mutations back (they never committed),
    while a mid-checkpoint crash keeps them (``save()``'s commit point —
    the catalog write — precedes the page fold). ``keep_crashed_dir``
    copies the post-crash directory (torn WAL included) there before
    recovery, as the CI failure artifact.
    """
    slopes = [float(s) for s in data.get("slopes", DEFAULT_SLOPES)]
    crash = CrashPoint.from_json(data["crash"])
    queries = [query_from_json(qd) for qd in data["queries"]]
    tuples = [tuple_from_json(td) for td in data["tuples"]]
    findings: list[dict] = []
    tmp = tempfile.mkdtemp(prefix="repro-recovery-")
    engine_dir = os.path.join(tmp, "engine")
    try:
        disk = FileDisk(engine_dir, durability="wal")
        planner = DualIndexPlanner.build(
            workload.as_relation(tuples), slopes,
            pager=Pager(disk=disk), dynamic=True,
        )
        sim = DiskSimulator()
        sim_planner = DualIndexPlanner.build(
            workload.as_relation(tuples), slopes,
            pager=Pager(disk=sim), dynamic=True,
        )
        for q in queries:
            planner.query(q)
            sim_planner.query(q)
        if disk.stats.__dict__ != sim.stats.__dict__:
            findings.append(
                {
                    "kind": "accounting-drift",
                    "file_backed": dict(disk.stats.__dict__),
                    "simulator": dict(sim.stats.__dict__),
                }
            )
        planner.save(engine_dir)
        live = dict(
            (tid, t) for tid, t in enumerate(tuples)
            if tid not in planner.index.skipped
        )
        next_tid = len(tuples)
        next_tid = _apply_ops(planner, live, data["committed"], next_tid)
        planner.commit()
        arm_crash(disk, crash)
        doomed = dict(live)
        fired = False
        try:
            _apply_ops(planner, doomed, data["crashed"], next_tid)
            if crash.point == "checkpoint":
                planner.save(engine_dir)
            else:
                planner.commit()
        except FaultInjectedError:
            fired = True
        if not fired:
            findings.append(
                {"kind": "crash-not-injected", "crash": crash.to_json()}
            )
        # What must survive: a torn WAL append dies before its batch
        # commits, so the doomed mutations roll back to the committed
        # set. A mid-checkpoint crash dies *after* save()'s commit point
        # (the catalog is written before the page fold), so the doomed
        # mutations are durable and must all be there.
        if fired and crash.point == "wal-append":
            committed = sorted(live.items())
        else:
            committed = sorted(doomed.items())
        disk.close()
        if keep_crashed_dir is not None:
            shutil.copytree(engine_dir, keep_crashed_dir,
                            dirs_exist_ok=True)
        recovered = open_planner(engine_dir)
        try:
            if recovered.index.size != len(committed):
                findings.append(
                    {
                        "kind": "recovery-size-mismatch",
                        "expected": len(committed),
                        "got": recovered.index.size,
                    }
                )
            for q in queries:
                expected = evaluate_relation(
                    committed, q.query_type, q.slope_2d, q.intercept,
                    q.theta,
                )
                got = recovered.query(q).ids
                if got != expected:
                    findings.append(
                        {
                            "kind": "recovery-divergence",
                            "query": query_to_json(q),
                            "missing": sorted(expected - got),
                            "extra": sorted(got - expected),
                        }
                    )
            try:
                check_dual_index(recovered.index)
            except VerificationError as exc:
                findings.append(
                    {"kind": "recovery-invariant", "error": str(exc)}
                )
        finally:
            recovered.index.pager.disk.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return findings


def run_recovery_scenario(
    seed: int = 0, out_dir: str = "fuzz-repros"
) -> list[str]:
    """The durability acceptance demo: crash once mid-WAL-append and once
    mid-checkpoint, reopen each from disk, and require the differential
    oracle to accept the recovered engine. Writes one replayable
    kind-``recovery`` repro JSON per crash point plus a copy of each
    crashed data directory (page file + torn WAL) as inspectable
    artifacts; returns the repro paths. Raises on any finding.
    """
    paths: list[str] = []
    for point, at in (("wal-append", 2), ("checkpoint", 1)):
        rng = random.Random(f"recovery:{seed}:{point}")
        case = make_recovery_case(
            rng, DEFAULT_SLOPES, 10, 8, crash=CrashPoint(point, at)
        )
        artifact_dir = os.path.join(
            out_dir, f"recovery-seed{seed}-{point}-data"
        )
        findings = run_recovery_case(case, keep_crashed_dir=artifact_dir)
        if findings:
            raise VerificationError(
                f"recovery scenario ({point}) failed: {findings}"
            )
        paths.append(
            write_repro(case, out_dir, f"recovery-seed{seed}-{point}")
        )
        get_registry().counter(
            "fuzz_crashes_recovered",
            "Injected crashes recovered by WAL replay",
        ).inc()
    return paths


# ----------------------------------------------------------------------
# minimisation
# ----------------------------------------------------------------------
def _minimize_list(items: list, still_fails: Callable[[list], bool]) -> list:
    """Greedy ddmin-lite: drop one element at a time to a fixpoint."""
    changed = True
    while changed and len(items) > 1:
        changed = False
        for i in range(len(items)):
            candidate = items[:i] + items[i + 1 :]
            try:
                if still_fails(candidate):
                    items = candidate
                    changed = True
                    break
            except ReproError:
                # The reduced case crashes differently; keep reducing —
                # a crash is still a failure worth shrinking toward.
                items = candidate
                changed = True
                break
    return items


def minimize_case(
    tuples: list[GeneralizedTuple],
    queries: list[HalfPlaneQuery],
    slopes: Sequence[float],
    include_rtree: bool,
) -> tuple[list[GeneralizedTuple], list[HalfPlaneQuery]]:
    """Shrink a failing (tuples, queries) case, tuples first."""

    def fails(ts: list, qs: list) -> bool:
        return bool(
            run_checks(
                ts, qs, slopes, include_rtree=include_rtree,
                check_invariants=False,
            )
        )

    tuples = _minimize_list(tuples, lambda ts: fails(ts, queries))
    queries = _minimize_list(queries, lambda qs: fails(tuples, qs))
    return tuples, queries


# ----------------------------------------------------------------------
# the time-boxed runner
# ----------------------------------------------------------------------
def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run differential rounds until the budget expires.

    Every finding is minimised (differential rounds) and written to
    ``config.out_dir`` as a replayable JSON; the report aggregates
    counts and paths. Deterministic in ``config.seed``.
    """
    registry = get_registry()
    report = FuzzReport(seed=config.seed)
    start = time.monotonic()
    _drain(_COMPARISONS)
    _drain(_WAIVERS)
    while (
        time.monotonic() - start < config.budget_seconds
        and report.rounds < config.max_rounds
    ):
        report.rounds += 1
        round_no = report.rounds
        rng = random.Random(f"{config.seed}:{round_no}")
        registry.counter("fuzz_rounds", "Differential fuzz rounds run").inc()
        if config.recovery_every and round_no % config.recovery_every == 0:
            case = make_recovery_case(
                rng, config.slopes, config.n_tuples,
                config.queries_per_round,
            )
            findings = run_recovery_case(case)
            if not any(
                f["kind"] == "crash-not-injected" for f in findings
            ):
                report.crashes_recovered += 1
                registry.counter(
                    "fuzz_crashes_recovered",
                    "Injected crashes recovered by WAL replay",
                ).inc()
            if findings:
                report.disagreements.extend(findings)
                registry.counter(
                    "fuzz_disagreements",
                    "Differential disagreements found",
                ).inc(len(findings))
                path = write_repro(
                    {**case, "round": round_no, "findings": findings},
                    config.out_dir,
                    f"recovery-seed{config.seed}-round{round_no}",
                )
                report.repro_paths.append(path)
                registry.counter(
                    "fuzz_repros", "Minimised fuzz repro files written"
                ).inc()
            continue
        if config.fault_every and round_no % config.fault_every == 0:
            findings, faults = fault_round(rng, config.slopes)
            report.faults_injected += faults
            registry.counter(
                "fuzz_faults_injected",
                "Storage faults injected by repro.verify",
            ).inc(faults)
            tuples, queries = [], []
        elif config.mutation_every and round_no % config.mutation_every == 0:
            findings = mutation_round(
                rng,
                config.slopes,
                config.n_tuples,
                config.queries_per_round,
                config.check_invariants,
            )
            tuples, queries = [], []
        else:
            bounded_only = bool(
                config.rtree_every and round_no % config.rtree_every == 0
            )
            tuples = workload.make_tuples(
                rng,
                config.n_tuples,
                unbounded_fraction=0.0 if bounded_only else config.unbounded_fraction,
                singleton_fraction=0.0 if bounded_only else config.singleton_fraction,
                empty_fraction=0.0 if bounded_only else config.empty_fraction,
            )
            relation = workload.as_relation(tuples)
            queries = workload.random_queries(
                rng, config.queries_per_round // 2, config.slopes
            ) + workload.boundary_queries(
                relation, config.slopes, rng,
                budget=config.queries_per_round - config.queries_per_round // 2,
            )
            findings = run_checks(
                tuples,
                queries,
                config.slopes,
                include_rtree=bounded_only,
                check_invariants=config.check_invariants,
            )
            report.queries += len(queries)
            registry.counter("fuzz_queries", "Queries fuzzed").inc(
                len(queries)
            )
            if findings and tuples and queries:
                tuples, queries = minimize_case(
                    tuples, queries, list(config.slopes), bounded_only
                )
                findings = run_checks(
                    tuples, queries, config.slopes,
                    include_rtree=bounded_only, check_invariants=False,
                )
        if findings:
            report.disagreements.extend(findings)
            registry.counter(
                "fuzz_disagreements", "Differential disagreements found"
            ).inc(len(findings))
            payload = {
                "kind": "differential",
                "seed": config.seed,
                "round": round_no,
                "slopes": list(config.slopes),
                "rtree": bool(tuples) and all(
                    t.is_satisfiable() and t.extension().is_bounded
                    for t in tuples
                ),
                "tuples": [tuple_to_json(t) for t in tuples],
                "queries": [query_to_json(q) for q in queries],
                "findings": findings,
            }
            path = write_repro(
                payload,
                config.out_dir,
                f"diff-seed{config.seed}-round{round_no}",
            )
            report.repro_paths.append(path)
            registry.counter(
                "fuzz_repros", "Minimised fuzz repro files written"
            ).inc()
    report.comparisons = _drain(_COMPARISONS)
    report.waivers = _drain(_WAIVERS)
    report.elapsed = time.monotonic() - start
    return report


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay_repro(path: str) -> list[dict]:
    """Re-run a written repro file; returns current findings.

    An empty list means the recorded failure no longer reproduces (for a
    fault repro: the fault fired as recorded and state stayed clean).
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["kind"] == "recovery":
        return run_recovery_case(data)
    if data["kind"] == "slowlog":
        from repro.verify.slowlog_replay import replay_slowlog_case

        return replay_slowlog_case(data)
    tuples = [tuple_from_json(td) for td in data["tuples"]]
    if data["kind"] == "fault":
        query = query_from_json(data["query"])
        error, clean = _inject_once(
            tuples, query, data["fault"]["op_index"],
            slopes=data.get("slopes", DEFAULT_SLOPES),
        )
        findings: list[dict] = []
        if error is None:
            findings.append({"kind": "fault-not-reproduced"})
        elif type(error).__name__ != data["error"]["type"]:
            findings.append(
                {
                    "kind": "fault-error-changed",
                    "expected": data["error"]["type"],
                    "got": type(error).__name__,
                }
            )
        if not clean:
            findings.append({"kind": "state-corruption-after-fault"})
        return findings
    queries = [query_from_json(qd) for qd in data["queries"]]
    return run_checks(
        tuples,
        queries,
        data.get("slopes", DEFAULT_SLOPES),
        include_rtree=data.get("rtree", False),
    )
