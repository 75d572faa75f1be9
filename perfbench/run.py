"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0

Workloads (all fig9-medium: n = 2000 medium objects, k = 3; see
``BENCHMARK.json`` for why each exists):

* ``serve-cold``    — distinct queries over 2 closed-loop connections;
* ``planner-paper`` — ``DualIndexPlanner.query`` one at a time (T1/T2);
* ``serve-rw``      — Zipf reads plus inserts, deletes and commits on a
  durable dynamic engine;
* ``batch-sharded`` — 64-query batches on a 2-shard engine.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (a run split into an untraced and a traced half);
``--workload all`` runs every workload both ways. A human-readable
report comes first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every answer check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Metric names and units, end-to-end and per-layer, in report order.
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")


def end_to_end(m) -> dict[str, float]:
    """The bounded metrics every workload reports."""
    return {
        "setup_s": statistics.median(m.setup_s),
        "query_qps": m.queries / m.elapsed_s,
        "query_p50_ms": statistics.median(m.latencies_ms),
        "peak_rss_mb": m.peak_rss_mb,
    }


def technique_mix(m) -> dict[str, float]:
    """Share of queries each technique answered."""
    total = sum(m.techniques.values()) or 1
    return {f"technique.{t}": m.techniques.get(t, 0) / total
            for t in ("exact", "T1", "T2", "vector")}


def report(workload: str, m, rows: dict[str, tuple[object, str]]) -> None:
    """Every metric by name and unit, plus the unbounded extras."""
    from stats import tail

    print(f"== {workload}: {m.queries} queries in {m.elapsed_s:.2f} s, "
          f"set-ups {', '.join(f'{s:.3f}' for s in m.setup_s)} s")
    rows = dict(rows)
    rows.update(m.extras)
    p99 = tail(m.latencies_ms, 0.99)
    rows["latency_samples"] = (len(m.latencies_ms), "count")
    rows["query_p99_ms"] = (p99, "ms") if p99 is not None else (
        "n/a: fewer than 10 samples beyond p99", "")
    rows["failed_frac"] = (m.tally.failed_frac, "frac")
    for name, value in technique_mix(m).items():
        rows.setdefault(name, (value, "frac"))
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:32s} {shown:>14s} {unit}")
    if m.tally.failures:
        print(f"   failures: {m.tally.failures}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its report and JSON line; True if correct."""
    from workloads import WORKLOADS

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        m = WORKLOADS[workload](seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(BENCHMARK_FILE, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    values = end_to_end(m)
    if trace:
        values.update(m.layers, **technique_mix(m))
    listed = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {spec["name"]: (values[spec["name"]], spec["unit"])
               for spec in listed}
    report(workload, m, metrics)
    correct = m.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    correct = [run_one(name, args.seed, args.seconds, trace)
               for name, trace in runs]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    raise SystemExit(main())
