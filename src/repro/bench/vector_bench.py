"""Columnar batch throughput (``BENCH_vector.json``).

The fig9-medium workload (N=2000 medium objects, k=3 slopes) answered
as a *slope-group fan batch* — for every predefined slope, a fan of 20
intercepts × {EXIST, ALL} × {>=, <=}, i.e. 240 exact-path queries that
group into one merged sweep per (slope, direction, type) — on the
B+-tree's columnar engine (vectorized descent, array sweeps, lazy
tid-column answers).

Guard rail before any number is reported: every query's id set must
equal the exact geometric oracle
(:func:`repro.geometry.predicates.evaluate_relation`, minus the tuples
the index skips as unsatisfiable). A mismatch exits 1 and the artifact
lists the diverging query positions.

Timing uses dedicated :class:`BatchExecutor` instances with the result
LRU disabled — a warm cache would measure ``set.copy`` instead of query
execution. The ``counters`` section feeds ``repro bench-diff --mode
floor`` (the CI QPS gate): ``qps_columnar`` is the pinned floor metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import harness
from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.exec import BatchExecutor
from repro.geometry.predicates import evaluate_relation
from repro.workloads import make_relation

#: The fig9-medium workload (Figure 9: medium objects, N=2000, k=3).
FIG9_N = 2000
FIG9_SIZE = "medium"
FIG9_K = 3

DEFAULT_OUT = "BENCH_vector.json"
#: Intercepts per (slope, type, theta) combination.
FAN_WIDTH = 20


def fan_batch(k: int, width: int = FAN_WIDTH) -> list[HalfPlaneQuery]:
    """The slope-group fan: ``k × width × 4`` exact-path queries.

    Intercepts sweep the populated key range so per-query answer sets
    span empty to nearly-everything; the per-slope offset keeps fans on
    different slopes from quantizing to identical key sets.
    """
    queries: list[HalfPlaneQuery] = []
    for i, slope in enumerate(SlopeSet.uniform_angles(k)):
        for j in range(width):
            intercept = -40.0 + 80.0 * j / max(width - 1, 1) + 0.37 * i
            queries.append(HalfPlaneQuery(EXIST, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(EXIST, slope, -intercept, "<="))
            queries.append(HalfPlaneQuery(ALL, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(ALL, slope, -intercept, "<="))
    return queries


def time_engine(
    planner: DualIndexPlanner,
    queries: list[HalfPlaneQuery],
    repeats: int,
):
    """``(best seconds, last batch)`` over ``repeats`` cold executions.

    A fresh cache-less executor per attempt: every timed batch pays the
    full descent/sweep/classify/assemble pipeline.
    """
    best = float("inf")
    batch = None
    for _ in range(repeats):
        executor = BatchExecutor(planner, cache_size=0)
        start = time.perf_counter()
        batch = executor.execute(queries)
        best = min(best, time.perf_counter() - start)
    return best, batch


def run_bench(
    n: int = FIG9_N,
    size: str = FIG9_SIZE,
    k: int = FIG9_K,
    seed: int = harness.SEED,
    repeats: int = 5,
    width: int = FAN_WIDTH,
) -> dict:
    """Time the fan batch and return the ``BENCH_vector.json`` payload."""
    relation = make_relation(n, size, seed=seed)
    queries = fan_batch(k, width)
    planner = DualIndexPlanner.build(relation, SlopeSet.uniform_angles(k))
    # One untimed pass decodes node pages into the columnar cache and
    # the buffer pool, so every timed run starts equally warm.
    time_engine(planner, queries[:1], 1)
    seconds, batch = time_engine(planner, queries, repeats)

    skipped = set(planner.index.skipped)
    mismatches = [
        position
        for position, (query, result) in enumerate(
            zip(queries, batch.results)
        )
        if result.ids != evaluate_relation(
            relation, query.query_type, query.slope_2d, query.intercept,
            query.theta,
        ) - skipped
    ]
    qps = round(len(queries) / seconds, 1)
    return {
        "workload": {
            "figure": "9 (medium objects)",
            "n": n,
            "size": size,
            "k": k,
            "seed": seed,
            "repeats": repeats,
            "queries": len(queries),
        },
        "batch_seconds": round(seconds, 6),
        "qps": qps,
        "page_accesses": batch.page_accesses,
        "mismatches": mismatches,
        # bench-diff floor-gate input (see module docstring).
        "counters": {"qps_columnar": qps},
    }


def format_report(payload: dict) -> str:
    w = payload["workload"]
    return "\n".join([
        f"vector bench — fig9-medium (n={w['n']}, size={w['size']}, "
        f"k={w['k']}, {w['queries']} queries/batch)",
        f"  columnar: {payload['batch_seconds']:.4f}s batch "
        f"({payload['qps']:.0f} q/s, {payload['page_accesses']} pages)",
        f"  answers vs oracle: {len(payload['mismatches'])} mismatches",
    ])


def main(argv: list[str] | None = None) -> int:
    """``repro vector-bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro vector-bench",
        description=(
            "columnar batch QPS on the fig9-medium slope-group fan "
            "(every answer checked against the exact oracle)"
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
        "--repeats", type=int, default=5,
        help="timed attempts (best-of; default 5)",
    )
    parser.add_argument(
        "--width", type=int, default=FAN_WIDTH,
        help=f"intercepts per (slope,type,theta) fan (default {FAN_WIDTH})",
    )
    args = parser.parse_args(argv)
    payload = run_bench(
        n=args.n, size=args.size, k=args.k, seed=args.seed,
        repeats=args.repeats, width=args.width,
    )
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_report(payload))
    print(f"wrote {args.out}")
    if payload["mismatches"]:
        print("answers diverged from the oracle at positions "
              f"{payload['mismatches']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
