"""Sharded-QPS benchmark (``BENCH_shard.json``).

Measures the query-side throughput of :class:`ShardedDualIndex` on the
paper's fig9-medium workload (N=2000 medium objects, k=3) at 1/2/4
shards over the columnar fan batch
(:func:`repro.bench.vector_bench.fan_batch`, 240 queries), with a
per-shard-count correctness check against the unsharded planner
(``answers_match_unsharded`` must be true for the numbers to mean
anything). Two numbers per shard count:

- ``wall`` — one ``query_batch`` call through the facade, which runs
  the shards one after another, exactly what a caller observes **on
  this machine**;
- ``critical_path`` — ``max(per-shard execute_partials seconds) +
  merge seconds``, the fork-join span of the batch. Per-shard work is
  timed serially on cache-less executors (best-of-``repeats``), so
  the span is a derived number: the time a batch would take if every
  shard ran on its own core, which no code path in this repository
  does. It is not measured throughput. It isolates the per-shard
  work, which must shrink as each shard's forest gets smaller, and
  it is the number the ``qps`` field and the shards=4 > shards=1 gate
  use.

The shards=4 > shards=1 critical-path comparison IS gated (exit 1):
each shard holds a smaller forest, so per-shard sweeps touch fewer
leaves and the span must shrink as shards grow. The emitted JSON is
uploaded as a workflow artifact and a reference copy is checked in at
the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import harness
from repro.bench.vector_bench import fan_batch
from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.exec import BatchExecutor, merge_partials
from repro.shard import ShardedDualIndex
from repro.workloads import make_relation

#: The fig9-medium workload (Figure 9: medium objects, N=2000, k=3).
FIG9_N = 2000
FIG9_SIZE = "medium"
FIG9_K = 3

DEFAULT_OUT = "BENCH_shard.json"
SHARD_COUNTS = (1, 2, 4)


def _build_queries(n: int, size: str, k: int, count: int) -> list[HalfPlaneQuery]:
    """A mixed batch: selectivity-calibrated interior-slope queries for
    both selection types plus one exact-slope query per predefined
    slope (so the merged-sweep path is exercised too)."""
    queries: list[HalfPlaneQuery] = []
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(n, size, qtype, k, count=count))
    for i, slope in enumerate(SlopeSet.uniform_angles(k)):
        queries.append(HalfPlaneQuery(EXIST, slope, 2.0 + i, ">="))
        queries.append(HalfPlaneQuery(ALL, slope, -2.0 - i, "<="))
    return queries


def run_bench(
    n: int = FIG9_N,
    size: str = FIG9_SIZE,
    k: int = FIG9_K,
    seed: int = harness.SEED,
    repeats: int = 2,
    queries_per_type: int = 6,
) -> dict:
    """Run the query leg and return the ``BENCH_shard.json`` payload."""
    payload: dict = {
        "workload": {
            "figure": "9 (medium objects)",
            "n": n,
            "size": size,
            "k": k,
            "seed": seed,
            "repeats": repeats,
        },
        "query": [],
    }

    # The columnar fan batch plus the mixed interior/exact batch, so the
    # timed workload covers both the exact merged-sweep path and the
    # vector technique.
    queries = fan_batch(k) + _build_queries(n, size, k, queries_per_type)
    reference = DualIndexPlanner.build(
        make_relation(n, size, seed=seed), SlopeSet.uniform_angles(k)
    )
    expected = [frozenset(reference.query(q).ids) for q in queries]
    crit_qps: dict[int, float] = {}
    query_repeats = max(repeats, 3)
    for shards in SHARD_COUNTS:
        engine = ShardedDualIndex.build(
            make_relation(n, size, seed=seed),
            SlopeSet.uniform_angles(k),
            shards=shards,
        )
        # Wall leg: warm the per-shard executors with a query OUTSIDE
        # the timed batch, so each shard's dual surface is built before
        # the timed run.
        engine.query_batch([HalfPlaneQuery(EXIST, 0.1234, 0.0, ">=")])
        start = time.perf_counter()
        batch = engine.query_batch(queries)
        wall = time.perf_counter() - start
        matches = all(
            frozenset(res.ids) == want
            for res, want in zip(batch.results, expected)
        )

        # Critical-path leg: per-shard partials timed serially on
        # cache-less executors, span = slowest shard + merge (a derived
        # number; see the module docstring).
        executors = [BatchExecutor(p, cache_size=0) for p in engine.planners]
        for executor in executors:  # untimed decode/warm pass
            executor.execute_partials(queries)
        shard_seconds = []
        for executor in executors:
            best = float("inf")
            for _ in range(query_repeats):
                start = time.perf_counter()
                executor.execute_partials(queries)
                best = min(best, time.perf_counter() - start)
            shard_seconds.append(best)
        parts = [executor.execute_partials(queries) for executor in executors]
        merge_seconds = float("inf")
        for _ in range(query_repeats):
            start = time.perf_counter()
            merged = merge_partials(parts)
            merge_seconds = min(merge_seconds, time.perf_counter() - start)
        matches = matches and all(
            frozenset(res.ids) == want
            for res, want in zip(merged.results, expected)
        )
        crit = max(shard_seconds) + merge_seconds
        crit_qps[shards] = len(queries) / crit
        payload["query"].append(
            {
                "shards": shards,
                "critical_path_seconds": round(crit, 6),
                "qps": round(len(queries) / crit, 1),
                "max_shard_seconds": round(max(shard_seconds), 6),
                "merge_seconds": round(merge_seconds, 6),
                "wall_batch_seconds": round(wall, 6),
                "wall_qps": round(len(queries) / wall, 1),
                "page_accesses": batch.page_accesses,
                "answers_match_unsharded": matches,
            }
        )
        engine.close()
    lo, hi = min(SHARD_COUNTS), max(SHARD_COUNTS)
    payload["query_speedup_4v1"] = round(crit_qps[hi] / crit_qps[lo], 3)
    payload["query_scales_with_shards"] = crit_qps[hi] > crit_qps[lo]
    return payload


def format_report(payload: dict) -> str:
    lines = [
        f"shard bench — fig9-medium (n={payload['workload']['n']}, "
        f"size={payload['workload']['size']}, k={payload['workload']['k']})",
        "query:",
    ]
    for row in payload["query"]:
        ok = "ok" if row["answers_match_unsharded"] else "MISMATCH"
        lines.append(
            f"  shards={row['shards']}: span {row['critical_path_seconds']:.4f}s "
            f"({row['qps']:.0f} q/s; wall {row['wall_batch_seconds']:.4f}s, "
            f"{row['wall_qps']:.0f} q/s; {row['page_accesses']} pages, "
            f"answers {ok})"
        )
    scales = "yes" if payload["query_scales_with_shards"] else "NO"
    lines.append(
        f"  query speedup 4v1 (critical path): "
        f"{payload['query_speedup_4v1']:.2f}x — scales with shards: {scales}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``repro shard-bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro shard-bench",
        description=(
            "sharded-QPS (1/2/4 shards) benchmark on the fig9-medium "
            "workload"
        ),
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"where to write the JSON payload (default {DEFAULT_OUT})",
    )
    parser.add_argument("--n", type=int, default=FIG9_N, help="relation size")
    parser.add_argument(
        "--size", default=FIG9_SIZE, choices=["small", "medium"]
    )
    parser.add_argument("--k", type=int, default=FIG9_K, help="slope count")
    parser.add_argument(
        "--seed", type=int, default=harness.SEED, help="workload seed"
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="best-of timing repeats of the query leg (never fewer "
             "than 3; default 2)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(
        n=args.n, size=args.size, k=args.k, seed=args.seed,
        repeats=args.repeats,
    )
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_report(payload))
    print(f"wrote {args.out}")
    if not all(row["answers_match_unsharded"] for row in payload["query"]):
        print("sharded answers diverged from unsharded", file=sys.stderr)
        return 1
    if not payload["query_scales_with_shards"]:
        print(
            "query-side critical-path QPS did not improve from "
            f"{min(SHARD_COUNTS)} to {max(SHARD_COUNTS)} shards",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
