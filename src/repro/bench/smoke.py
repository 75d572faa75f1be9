"""CI perf-smoke: a fixed workload whose page-access counters gate CI.

Runs a small deterministic workload (one relation, a handful of EXIST
and ALL queries) through both competitors — the dual index (T2) and the
R+-tree — and accumulates the paper's cost metric, *logical page
accesses*, into a :class:`~repro.obs.MetricsRegistry`:

* ``smoke_index_pages{structure,type}`` — index-structure accesses;
* ``smoke_total_pages{structure,type}`` — including refinement fetches;
* ``smoke_phase_pages{structure,type,phase}`` — per-phase split from
  the query traces (descend / sweep / fetch);
* ``smoke_results{structure,type}`` — answer sizes (a correctness
  canary: a perf "win" that changes answers is a bug);
* ``smoke_query_seconds{structure}`` — wall-time histogram. Timings are
  *not* gated (they flake on shared runners); only counters are;
* ``smoke_build_pages`` / ``smoke_build_seconds`` — build-phase page
  traffic (gated) and wall time (informational).

The gate compares the registry's ``counters`` section against a
checked-in baseline (``benchmarks/baselines/smoke.json``): any counter
above its baseline value, or any baseline counter missing from the
current run, fails. Logical page counts are deterministic — same seed,
same build, same sweep — so the gate is flake-free by construction.
"""

from __future__ import annotations

import os
import time

from repro.bench import harness
from repro.core import ALL, EXIST
from repro.obs import MetricsRegistry, QueryTrace, tracing

#: Fixed workload parameters. Changing any of these invalidates the
#: checked-in baseline (regenerate with ``repro smoke --update-baseline``).
SMOKE_N = 500
SMOKE_SIZE = "small"
SMOKE_K = 3
SMOKE_QUERIES = 4

DEFAULT_BASELINE = os.path.join("benchmarks", "baselines", "smoke.json")


def default_baseline() -> str:
    """Resolve the baseline path convention.

    The baseline lives at ``benchmarks/baselines/smoke.json`` *relative
    to the repository root*. The path is tried relative to the current
    working directory first (the CI case: jobs run from the checkout
    root), then anchored at the repository root located from this
    module's location, so ``repro smoke`` also works from any
    subdirectory of a checkout. ``--baseline PATH`` overrides both.
    """
    if os.path.exists(DEFAULT_BASELINE):
        return DEFAULT_BASELINE
    root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "..")
    )
    candidate = os.path.join(root, DEFAULT_BASELINE)
    if os.path.exists(candidate):
        return candidate
    return DEFAULT_BASELINE

#: Phases whose page counts the registry splits out.
PHASES = ("descend", "sweep", "fetch")


def run_smoke(
    registry: MetricsRegistry | None = None,
    n: int = SMOKE_N,
    size: str = SMOKE_SIZE,
    k: int = SMOKE_K,
    count: int = SMOKE_QUERIES,
    shards: int = 1,
    data_dir: str | None = None,
) -> MetricsRegistry:
    """Run the workload and return the populated registry.

    The defaults are the CI gate's fixed parameters. ``shards > 1`` adds a
    sharded-engine leg whose counters are new (warn-only) until pinned
    into the baseline; ``data_dir`` adds a durable save/open leg under
    that directory.
    """
    registry = registry if registry is not None else MetricsRegistry()
    _run_build_leg(registry, n, size, k)
    index_pages = registry.counter(
        "smoke_index_pages",
        "Index-structure page accesses over the smoke batch",
        labelnames=("structure", "type"),
    )
    total_pages = registry.counter(
        "smoke_total_pages",
        "Total page accesses (index + refinement) over the smoke batch",
        labelnames=("structure", "type"),
    )
    phase_pages = registry.counter(
        "smoke_phase_pages",
        "Per-phase logical page accesses over the smoke batch",
        labelnames=("structure", "type", "phase"),
    )
    results = registry.counter(
        "smoke_results",
        "Total answer tuples over the smoke batch (correctness canary)",
        labelnames=("structure", "type"),
    )
    seconds = registry.histogram(
        "smoke_query_seconds",
        "Per-query wall time (informational; never gated)",
        labelnames=("structure",),
        buckets=(0.001, 0.01, 0.1, 1.0, 10.0),
    )
    structures = (
        ("dual", harness.dual_planner(n, size, k)),
        ("rplus", harness.rplus_planner(n, size)),
    )
    for qtype in (EXIST, ALL):
        queries = harness.queries_for(n, size, qtype, k, count=count)
        for name, planner in structures:
            for query in queries:
                start = time.perf_counter()
                with tracing(QueryTrace(name="smoke")):
                    res = planner.query(query)
                seconds.labels(structure=name).observe(
                    time.perf_counter() - start
                )
                index_pages.labels(structure=name, type=qtype).inc(
                    res.index_accesses
                )
                total_pages.labels(structure=name, type=qtype).inc(
                    res.page_accesses
                )
                results.labels(structure=name, type=qtype).inc(len(res.ids))
                phases = res.trace.phase_pages()
                for phase in PHASES:
                    count = phases.get(phase, 0)
                    if count:
                        phase_pages.labels(
                            structure=name, type=qtype, phase=phase
                        ).inc(count)
    _run_batch_leg(registry, structures[0][1], n, size, k, count)
    if shards > 1:
        _run_shard_leg(registry, n, size, k, count, shards)
    if data_dir is not None:
        _run_durable_leg(registry, n, size, k, count, data_dir)
    return registry


def _run_build_leg(
    registry: MetricsRegistry, n: int, size: str, k: int
) -> None:
    """Time a full index build and count its page traffic.

    Adds ``smoke_build_pages`` (deterministic — same relation, same
    keys, same page layout and logical write count) and the
    informational ``smoke_build_seconds`` histogram. The relation is regenerated from
    scratch so tuple-extension memoisation in the shared harness cache
    cannot hide build work.
    """
    from repro.core import DualIndexPlanner, SlopeSet
    from repro.storage.pager import Pager
    from repro.workloads import make_relation

    relation = make_relation(n, size, seed=harness.SEED)
    pager = Pager()
    start = time.perf_counter()
    with pager.measure() as scope:
        DualIndexPlanner.build(
            relation, SlopeSet.uniform_angles(k), pager=pager
        )
    elapsed = time.perf_counter() - start
    registry.counter(
        "smoke_build_pages",
        "Logical page accesses of a full smoke-workload index build",
    ).inc(scope.delta.logical_reads + scope.delta.logical_writes)
    registry.histogram(
        "smoke_build_seconds",
        "Index build wall time (informational; never gated)",
        buckets=(0.01, 0.1, 1.0, 10.0, 60.0),
    ).observe(elapsed)


def _run_shard_leg(
    registry: MetricsRegistry,
    n: int,
    size: str,
    k: int,
    count: int,
    shards: int,
) -> None:
    """Optional sharded-engine leg (``--shards N`` with N > 1).

    Fans the smoke batch across a :class:`ShardedDualIndex` and records
    ``smoke_shard_pages``/``smoke_shard_results`` plus the engine's own
    fleet series — ``shard_fanout_*`` and the per-shard
    ``shard_exec_*{shard=i}`` / ``shard_pages{shard=i}`` families the
    facade drains from its shard-local registries — so the ``repro
    smoke --shards N`` output shows sharded traffic. The extra families are distinct names from
    the gated default-workload counters (they cannot inflate them), and
    new keys warn rather than gate.
    """
    from repro.core import HalfPlaneQuery, SlopeSet
    from repro.shard import ShardedDualIndex
    from repro.workloads import make_relation

    queries: list[HalfPlaneQuery] = []
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(n, size, qtype, k, count=count))
    engine = ShardedDualIndex.build(
        make_relation(n, size, seed=harness.SEED),
        SlopeSet.uniform_angles(k),
        shards=shards,
        registry=registry,
    )
    try:
        batch = engine.query_batch(queries)
        registry.counter(
            "smoke_shard_pages",
            "Total page accesses of the sharded smoke leg",
            labelnames=("shards",),
        ).labels(shards=str(shards)).inc(batch.page_accesses)
        registry.counter(
            "smoke_shard_results",
            "Total answer tuples of the sharded smoke leg",
            labelnames=("shards",),
        ).labels(shards=str(shards)).inc(
            sum(len(res.ids) for res in batch.results)
        )
    finally:
        engine.close()


def _run_durable_leg(
    registry: MetricsRegistry, n: int, size: str, k: int, count: int,
    data_dir: str,
) -> None:
    """Durable save/open leg (``--data-dir``).

    Builds the smoke dual index on a WAL-mode :class:`FileDisk` under
    ``data_dir``, saves it (checkpoint + catalog), reopens it from disk
    and answers the smoke batch on both engines, asserting identical
    answer sets. Adds ``smoke_durable_pages``/``smoke_durable_results``;
    the durability counters themselves (``wal_appends``, ``wal_fsyncs``,
    ``checkpoint_pages``) register in the process-global registry as a
    side effect of running a WAL-mode disk — a run without this leg
    shows none of them.
    """
    from repro.core import DualIndexPlanner, SlopeSet
    from repro.errors import VerificationError
    from repro.storage import FileDisk, Pager, open_planner, save_planner
    from repro.workloads import make_relation

    engine_dir = os.path.join(data_dir, "smoke-engine")
    disk = FileDisk(engine_dir, durability="wal")
    planner = DualIndexPlanner.build(
        make_relation(n, size, seed=harness.SEED),
        SlopeSet.uniform_angles(k),
        pager=Pager(disk=disk),
    )
    save_planner(planner, engine_dir)
    queries = []
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(n, size, qtype, k, count=count))
    reopened = open_planner(engine_dir)
    pages = 0
    answers = 0
    try:
        for query in queries:
            live = planner.query(query)
            restored = reopened.query(query)
            if restored.ids != live.ids:
                raise VerificationError(
                    f"durable leg: reopened engine diverged on {query!r}"
                )
            pages += restored.page_accesses
            answers += len(restored.ids)
    finally:
        reopened.index.pager.disk.close()
        disk.close()
    registry.counter(
        "smoke_durable_pages",
        "Total page accesses of the reopened-from-disk smoke leg",
    ).inc(pages)
    registry.counter(
        "smoke_durable_results",
        "Total answer tuples of the reopened-from-disk smoke leg "
        "(must match the live engine)",
    ).inc(answers)


def _run_batch_leg(
    registry: MetricsRegistry, dual, n: int, size: str, k: int, count: int
) -> None:
    """Drive the batch executor over the same workload (dual index only).

    Adds ``smoke_batch_pages``/``smoke_batch_results`` plus the
    executor's own ``exec_*`` cache/batch counters to the registry. The
    batch mixes the harness's interior-slope queries (vectorized path),
    one exact-slope query per predefined slope (merged-sweep path), and
    one repeated query (a deterministic intra-batch cache hit) — all
    derived from fixed parameters, so every counter is deterministic.
    """
    from repro.core import HalfPlaneQuery
    from repro.exec import BatchExecutor

    queries: list[HalfPlaneQuery] = []
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(n, size, qtype, k, count=count))
    for i, slope in enumerate(dual.index.slopes):
        queries.append(HalfPlaneQuery(EXIST, slope, 2.0 + i, ">="))
        queries.append(HalfPlaneQuery(ALL, slope, -2.0 - i, "<="))
    queries.append(queries[0])  # repeated query → one guaranteed cache hit
    batch = BatchExecutor(dual, registry=registry).execute(queries)
    registry.counter(
        "smoke_batch_pages",
        "Total page accesses of the smoke batch-execution leg",
    ).inc(batch.page_accesses)
    registry.counter(
        "smoke_batch_results",
        "Total answer tuples of the smoke batch-execution leg",
    ).inc(sum(len(res.ids) for res in batch.results))


def check_baseline(current: dict, baseline: dict) -> list[str]:
    """Compare collected counters against a baseline; return violations.

    ``current`` and ``baseline`` are ``MetricsRegistry.collect()``-shaped
    dicts. Only the ``counters`` section is gated: a counter above its
    baseline value is a regression, and a baseline counter absent from
    the current run means the workload silently shrank — both fail.
    New counters (present now, absent from the baseline) only warn via
    the caller's report, so adding instrumentation never breaks CI.
    """
    violations: list[str] = []
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for key, limit in sorted(base_counters.items()):
        if key not in cur_counters:
            violations.append(
                f"baseline counter {key} missing from current run"
            )
        elif cur_counters[key] > limit:
            violations.append(
                f"{key}: {cur_counters[key]:g} exceeds baseline {limit:g}"
            )
    return violations
