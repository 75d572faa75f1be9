"""Command-line interface: ``python -m repro <command>``.

Each subcommand documents itself: ``repro --help`` lists them and
``repro <command> --help`` gives its options.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dual-representation indexing for linear constraint databases "
            "(Bertino, Catania & Chidlovskii, ICDE 1999 — reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and experiment overview")
    sub.add_parser("demo", help="run the Example 2.1 quickstart")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "--id",
        required=True,
        choices=["8a", "8b", "9a", "9b", "10"],
        help="figure identifier",
    )
    figure.add_argument(
        "--full", action="store_true", help="paper-scale parameter sweep"
    )
    figure.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )

    query = sub.add_parser(
        "query",
        help="query a relation from a file",
        description=(
            "Index a relation read from a tuple file and run one "
            "half-plane query through the paper's T1/T2 planner. File "
            "paths are resolved relative to the current working "
            "directory. `repro explain --tuples F --queries Q` runs "
            "the same query under a trace."
        ),
    )
    query.add_argument(
        "--tuples", required=True,
        help="tuple file path (one generalized tuple per line, "
             "# comments allowed)",
    )
    query.add_argument(
        "--type", required=True, choices=["ALL", "EXIST"],
        help="selection type",
    )
    query.add_argument(
        "--slope", type=float, required=True,
        help="query slope (the s of y θ s·x + b)",
    )
    query.add_argument(
        "--intercept", type=float, required=True,
        help="query intercept (the b of y θ s·x + b)",
    )
    query.add_argument(
        "--theta", default="GE", choices=["GE", "LE"],
        help="comparison operator (default GE)",
    )
    query.add_argument(
        "--slopes",
        default=None,
        help="comma-separated predefined slope set (default: 3 uniform)",
    )

    batch = sub.add_parser(
        "batch",
        help="answer a whole query file through the batch engine",
        description=(
            "Index a relation and answer every query in a query file "
            "with the batch execution engine (merged B+-tree sweeps, "
            "vectorized dual evaluation, LRU result cache). Query file "
            "format: one query per line, `ALL|EXIST <slope> <intercept> "
            "<GE|LE>`, # comments allowed."
        ),
    )
    batch.add_argument(
        "--tuples", default=None,
        help="tuple file path (one generalized tuple per line); omit "
             "with --data-dir to reopen a saved engine instead",
    )
    batch.add_argument(
        "--queries", required=True,
        help="query file path (`ALL|EXIST <slope> <intercept> <GE|LE>` "
             "per line)",
    )
    batch.add_argument(
        "--data-dir", default=None,
        help="durable engine directory: with --tuples, save the built "
             "engine there after answering; without --tuples, open the "
             "saved engine from there (no rebuild)",
    )
    batch.add_argument(
        "--slopes", default=None,
        help="comma-separated predefined slope set (default: 3 uniform)",
    )
    batch.add_argument(
        "--json", action="store_true",
        help="emit per-query answers and the batch summary as JSON",
    )
    batch.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition the relation across N independent shards "
             "and fan the batch out (default 1 = single engine)",
    )

    explain = sub.add_parser(
        "explain",
        help="trace one workload and print checked per-phase attribution",
        description=(
            "Run a query workload under a QueryTrace and print the "
            "explain report: span tree, exclusive per-phase page/time "
            "attribution (asserted to sum to the inclusive total, "
            "per-shard pagers included), B+-tree descent heights, "
            "buffer hit ratios, and cache outcomes. Choose the workload "
            "with --workload (a named harness preset) or --tuples/"
            "--queries files."
        ),
    )
    explain.add_argument(
        "--workload", default=None, choices=["fig9-medium", "smoke"],
        help="named harness workload (fig9-medium: n=2000 medium; "
             "smoke: n=500 small)",
    )
    explain.add_argument(
        "--tuples", default=None,
        help="tuple file path (alternative to --workload)",
    )
    explain.add_argument(
        "--queries", default=None,
        help="query file path (`ALL|EXIST <slope> <intercept> <GE|LE>` "
             "per line); with --workload, harness queries are used",
    )
    explain.add_argument(
        "--count", type=int, default=1,
        help="harness queries per selection type (default 1)",
    )
    explain.add_argument(
        "--slopes", default=None,
        help="comma-separated predefined slope set (file workloads only)",
    )
    explain.add_argument(
        "--shards", type=int, default=1,
        help="run against a sharded engine with N shards (per-shard "
             "rows appear in the report)",
    )
    explain.add_argument(
        "--batch", action="store_true",
        help="route through the batch executor instead of per-query",
    )
    explain.add_argument(
        "--chrome-out", default=None,
        help="also export a Chrome trace-event JSON (open in Perfetto)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the raw trace JSON instead of the rendered report",
    )
    explain.add_argument(
        "--data-dir", default=None,
        help="open a saved engine from this directory instead of "
             "building one (needs --queries; excludes --workload/"
             "--tuples)",
    )

    smoke = sub.add_parser(
        "smoke",
        help="CI perf-smoke: fixed workload gated on a baseline",
        description=(
            "Run the fixed perf-smoke workload and gate its page-access "
            "counters on a checked-in baseline. By convention the "
            "baseline lives at benchmarks/baselines/smoke.json relative "
            "to the repository root (resolved from the working directory "
            "or the checkout); --baseline PATH overrides the convention."
        ),
    )
    smoke.add_argument(
        "--out", default="BENCH_smoke.json",
        help="where to write the metrics JSON (default BENCH_smoke.json)",
    )
    smoke.add_argument(
        "--baseline", default=None,
        help="baseline file to gate against (default: the "
             "benchmarks/baselines/smoke.json convention)",
    )
    smoke.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    smoke.add_argument(
        "--shards", type=int, default=1,
        help="also run a sharded-engine smoke leg with N shards; its "
             "counters (and the merged shard_*{shard=i} fleet series) "
             "are new, so they warn rather than gate until the "
             "baseline is re-pinned",
    )
    smoke.add_argument(
        "--data-dir", default=None,
        help="run the whole workload file-backed (REPRO_DATA_DIR) under "
             "this directory and add a durable save/open leg whose "
             "answers must match the live engine; page counters must "
             "not move",
    )

    overhead = sub.add_parser(
        "overhead",
        help="gate tracing wall-time overhead against a budget",
        description=(
            "Run the smoke query workload traced and untraced (best-of-N "
            "each) and fail when the traced run exceeds the untraced one "
            "by more than the fractional budget plus a small absolute "
            "slack."
        ),
    )
    overhead.add_argument("--budget", type=float, default=0.05,
                          help="max fractional overhead (default 0.05)")
    overhead.add_argument("--repeats", type=int, default=5,
                          help="best-of repeats per mode (default 5)")
    overhead.add_argument(
        "--serve", action="store_true",
        help="gate the serve path's request tracing (embedded server, "
             "closed-loop load) instead of the in-process span hooks",
    )
    overhead.add_argument(
        "--requests", type=int, default=400,
        help="--serve: closed-loop requests per timed run (default 400)",
    )
    overhead.add_argument(
        "--concurrency", type=int, default=8,
        help="--serve: closed-loop connections (default 8)",
    )
    overhead.add_argument(
        "--trace-sample", type=int, default=16,
        help="--serve: span-tree cadence in the traced run (default 16, "
             "the cadence the CI serve job runs `repro serve` at)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of all query paths vs two oracles",
        description=(
            "Run the repro.verify differential runner: randomized + "
            "adversarial workloads through the exact sweeps, T1/T2, the "
            "R+-tree baseline, the vectorized surface and the batch "
            "executor (cache cold and hot), cross-checked against the "
            "geometric and LP oracles, with invariant, mutation and "
            "fault-injection rounds. Failing cases are minimised to "
            "replayable JSON repro files."
        ),
    )
    fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    fuzz.add_argument(
        "--budget", default="10s",
        help="time budget, e.g. 30s, 2m, 0.5h (default 10s)",
    )
    fuzz.add_argument(
        "--out", default="fuzz-repros",
        help="directory for minimised repro JSON files",
    )
    fuzz.add_argument(
        "--tuples", type=int, default=14, help="tuples per round"
    )
    fuzz.add_argument(
        "--queries", type=int, default=12, help="queries per round"
    )
    fuzz.add_argument(
        "--replay", default=None,
        help="re-run one repro JSON file instead of fuzzing",
    )
    fuzz.add_argument(
        "--fault-demo", action="store_true",
        help="run the fault-injection scenario and write its repro",
    )
    fuzz.add_argument(
        "--recovery-demo", action="store_true",
        help="crash a durable engine mid-WAL-append and mid-checkpoint, "
             "reopen each from disk, require the oracle to accept, and "
             "write replayable repros + the crashed data directories",
    )

    save = sub.add_parser(
        "save",
        help="build an index from a tuple file and persist it durably",
        description=(
            "Build a dual-index engine (or a sharded one with --shards) "
            "from a tuple file and save it to a data directory — page "
            "file, free list, WAL, and catalog (format: docs/"
            "STORAGE.md). The directory reopens with `repro open` or "
            "`repro batch --data-dir` without rebuilding."
        ),
    )
    save.add_argument(
        "--tuples", required=True,
        help="tuple file path (one generalized tuple per line)",
    )
    save.add_argument(
        "--data-dir", required=True,
        help="target directory for the durable engine",
    )
    save.add_argument(
        "--slopes", default=None,
        help="comma-separated predefined slope set (default: 3 uniform)",
    )
    save.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition across N shards (default 1)",
    )

    open_cmd = sub.add_parser(
        "open",
        help="open a saved engine from disk and print its catalog",
        description=(
            "Open a durable engine directory written by `repro save` (or "
            "the save APIs) without rebuilding: replay the WAL up to the "
            "catalog's commit point and print what was restored. With "
            "--queries, also answer a query file through the reopened "
            "engine."
        ),
    )
    open_cmd.add_argument(
        "--data-dir", required=True,
        help="durable engine directory to open",
    )
    open_cmd.add_argument(
        "--queries", default=None,
        help="optional query file (`ALL|EXIST <slope> <intercept> "
             "<GE|LE>` per line) to answer through the reopened engine",
    )
    open_cmd.add_argument(
        "--json", action="store_true",
        help="emit the summary (and any answers) as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a saved engine over the length-prefixed JSON protocol",
        description=(
            "Run the asyncio query server over an engine directory "
            "written by `repro save`: concurrent queries coalesce into "
            "batch-executor calls, a bounded queue answers OVERLOADED "
            "past capacity, SIGHUP reloads the index with draining, and "
            "the WAL auto-checkpoints past a size threshold. Protocol "
            "spec and semantics: docs/SERVING.md."
        ),
    )
    serve.add_argument(
        "--data-dir", required=True,
        help="durable engine directory to serve",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7399,
        help="query port (0 binds an ephemeral port; default 7399)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="HTTP sidecar port for GET /metrics (Prometheus text) "
             "and /healthz; off unless given",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="coalesce at most N queries per executor batch (default 64)",
    )
    serve.add_argument(
        "--max-delay", type=float, default=0.002,
        help="batches leave when the engine is idle and no more "
             "requests are readable; this caps how long a steady "
             "trickle can hold the oldest query, in seconds "
             "(default 0.002; 0 flushes every loop tick)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256,
        help="in-flight requests beyond this get OVERLOADED (default 256)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=5.0,
        help="drop a connection whose partial frame stalls S seconds",
    )
    serve.add_argument(
        "--wal-checkpoint-mb", type=float, default=4.0,
        help="auto-checkpoint when the WAL exceeds this many MiB "
             "(default 4)",
    )
    serve.add_argument(
        "--auto-tune", action="store_true",
        help="periodically learn a slope set from served traffic and "
             "hot-swap a rebuilt engine when the cost model predicts "
             "a win (the tune op stays available either way)",
    )
    serve.add_argument(
        "--tune-interval", type=float, default=5.0,
        help="seconds between auto-tune checks (default 5)",
    )
    serve.add_argument(
        "--tune-min-evidence", type=int, default=64,
        help="logged queries required before a tune decision (default 64)",
    )
    serve.add_argument(
        "--trace-sample", type=int, default=0,
        help="request tracing: 0 = off (bit-identical request path); "
             "N >= 1 traces every request (id + cost watchdog + "
             "slow-query log) and records a span tree every Nth",
    )
    serve.add_argument(
        "--slowlog-capacity", type=int, default=32,
        help="slow-query log worst-N capacity per ranking (default 32)",
    )
    serve.add_argument(
        "--slowlog-out", default=None,
        help="write the slow-query log as JSONL on shutdown "
             "(replayable via `repro slowlog --replay`)",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="write the most recent sampled span tree as JSON on "
             "shutdown (CI artifact)",
    )
    serve.add_argument(
        "--cost-budget", type=float, default=4.0,
        help="cost watchdog: actual/predicted page ratio above this "
             "counts a violation (default 4.0)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running server and report QPS + latency as JSON",
        description=(
            "Closed-loop (default): N connections each wait for their "
            "answer before the next query — the model CI pins. "
            "Open-loop: fire at a fixed --rate regardless of "
            "completions, which is what pushes the server into "
            "OVERLOADED backpressure."
        ),
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed")
    loadgen.add_argument(
        "--requests", type=int, default=1000,
        help="total requests to issue (default 1000)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop connections / open-loop pool size (default 8)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=1000.0,
        help="open-loop arrival rate in requests/s (default 1000)",
    )
    loadgen.add_argument(
        "--warmup", type=int, default=0,
        help="unmeasured warmup requests before the clock starts",
    )
    loadgen.add_argument(
        "--queries", default=None,
        help="query file (`ALL|EXIST <slope> <intercept> <GE|LE>` per "
             "line); default: the fig9-medium workload's query mix",
    )
    loadgen.add_argument(
        "--workload", choices=sorted(_EXPLAIN_WORKLOADS),
        default="fig9-medium",
        help="built-in query mix when --queries is absent",
    )
    loadgen.add_argument(
        "--out", default=None,
        help="also write the JSON report to this path",
    )
    loadgen.add_argument(
        "--trace", action="store_true",
        help="attach a client-minted trace id to every request (the "
             "server echoes it and links it into /metrics exemplars "
             "and the slow-query log)",
    )
    loadgen.add_argument(
        "--trace-sample", type=int, default=0,
        help="with --trace, ask for span-tree sampling every Nth "
             "request (default 0: server decides)",
    )

    slowlog = sub.add_parser(
        "slowlog",
        help="inspect or replay a slow-query log",
        description=(
            "Read a slow-query log written by `repro serve "
            "--slowlog-out` (or a /slowlog fetch saved to disk) and "
            "list its worst entries; with --replay, re-run an entry's "
            "query cold against its recorded engine and verify the "
            "answer digest, technique and per-query accounting "
            "bit-for-bit (exit 1 on divergence)."
        ),
    )
    slowlog.add_argument(
        "log", help="slow-query log JSONL (or a kind=slowlog repro JSON)")
    slowlog.add_argument(
        "--by", choices=("latency", "pages"), default="latency",
        help="ranking used for listing and --entry selection",
    )
    slowlog.add_argument(
        "--entry", type=int, default=0,
        help="entry index under the chosen ranking (default 0 = worst)",
    )
    slowlog.add_argument(
        "--replay", action="store_true",
        help="re-run the selected entry and compare against the record",
    )
    slowlog.add_argument(
        "--data-dir", default=None,
        help="engine directory override (default: the entry's recorded "
             "data_dir)",
    )
    slowlog.add_argument(
        "--repro-out", default=None,
        help="write the selected entry as a kind=slowlog repro JSON "
             "into this directory (replayable via `repro fuzz "
             "--replay`)",
    )
    slowlog.add_argument(
        "--json", action="store_true",
        help="print the selected entry (or replay findings) as JSON",
    )

    top = sub.add_parser(
        "top",
        help="live terminal view over a serving process",
        description=(
            "Refresh-loop view over the metrics sidecar (/metrics + "
            "/slowlog): QPS, p50/p99 latency, pages per query, the "
            "cost watchdog's predicted-vs-actual ratio, WAL/checkpoint "
            "lag, tune status and the worst slow-log entry. Rates are "
            "window-local (deltas between refreshes)."
        ),
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--metrics-port", type=int, required=True,
        help="the server's --metrics-port",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single cumulative frame and exit",
    )

    tune = sub.add_parser(
        "tune",
        help="learn a slope set from observed traffic, optionally "
             "rebuild to it",
        description=(
            "Learn a slope set from observed query slopes, price it "
            "against the saved engine's current set, and report the "
            "predicted win. --apply rebuilds into a new --out data "
            "directory through the checkpoint path; the source "
            "directory is never written."
        ),
    )
    tune.add_argument(
        "--data-dir", required=True,
        help="saved engine directory to tune (read-only unless --apply)",
    )
    tune.add_argument(
        "--queries", default=None,
        help="query file (`ALL|EXIST <slope> <intercept> <GE|LE>` per "
             "line) as slope evidence",
    )
    tune.add_argument(
        "--slope-log", default=None,
        help="slope-log snapshot JSON (SlopeLogSnapshot.to_dict form) "
             "as slope evidence",
    )
    tune.add_argument(
        "--k", type=int, default=None,
        help="learned slope-set size (default: match the current set)",
    )
    tune.add_argument(
        "--apply", action="store_true",
        help="rebuild the engine under the learned set into --out",
    )
    tune.add_argument(
        "--out", default=None,
        help="target data directory for --apply (must not exist or be "
             "empty; must differ from --data-dir)",
    )
    tune.add_argument(
        "--json", action="store_true", help="emit the report as JSON",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _info,
        "demo": _demo,
        "figure": _figure,
        "query": _query,
        "batch": _batch,
        "explain": _explain,
        "overhead": _overhead,
        "smoke": _smoke,
        "tune": _tune,
        "fuzz": _fuzz,
        "save": _save,
        "open": _open,
        "serve": _serve,
        "loadgen": _loadgen,
        "slowlog": _slowlog,
        "top": _top,
    }[args.command]
    return handler(args)


def _info(args) -> int:
    from repro.bench import PAPER_K_VALUES, PAPER_N_VALUES

    print(f"repro {__version__} — dual-representation constraint-database "
          f"indexing (ICDE 1999 reproduction)")
    print("subsystems: constraints, geometry, storage, btree, rtree, core, "
          "intervals, workloads, bench")
    print(f"paper sweep: N ∈ {PAPER_N_VALUES}, k ∈ {PAPER_K_VALUES}, "
          f"object classes small/medium, selectivity 10–15%")
    print("experiments: figures 8a 8b 9a 9b 10, Table 1 check, "
          "ablations A1–A7 (see benchmarks/)")
    return 0


def _demo(args) -> int:
    import runpy

    candidates = [
        os.path.join(os.getcwd(), "examples", "quickstart.py"),
        os.path.abspath(
            os.path.join(
                os.path.dirname(__file__), "..", "..", "examples",
                "quickstart.py",
            )
        ),
    ]
    for path in candidates:
        if os.path.exists(path):
            runpy.run_path(path, run_name="__main__")
            return 0
    print("examples/quickstart.py not found", file=sys.stderr)
    return 1


def _figure(args) -> int:
    if args.full:
        os.environ["REPRO_FULL"] = "1"
    from repro.bench import (
        figure_8_9,
        figure_10,
        render_figure,
        render_figure_10,
    )
    from repro.core import ALL, EXIST

    if args.id == "10":
        print(render_figure_10(figure_10("small")))
        return 0
    size = "small" if args.id.startswith("8") else "medium"
    query_type = EXIST if args.id.endswith("a") else ALL
    series = figure_8_9(size, query_type)
    label = {"8a": "Figure 8(a)", "8b": "Figure 8(b)",
             "9a": "Figure 9(a)", "9b": "Figure 9(b)"}[args.id]
    print(
        render_figure(
            f"{label} — {query_type} selections, {size} objects "
            f"(index page accesses)",
            series,
        )
    )
    print()
    print(
        render_figure(
            f"{label} — total accesses incl. refinement",
            series,
            metric="total_accesses",
        )
    )
    if args.chart:
        from repro.bench.plotting import chart_figure

        print()
        print(chart_figure(series))
    return 0


def _query(args) -> int:
    from repro.core import HalfPlaneQuery

    relation, planner = _load_relation(args.tuples, args.slopes)
    if relation is None:
        print("no tuples found", file=sys.stderr)
        return 1
    theta = ">=" if args.theta == "GE" else "<="
    query = HalfPlaneQuery(args.type, args.slope, args.intercept, theta)
    result = planner.query(query)
    theta = query.theta.value
    print(f"query    : {args.type}(y {theta} {args.slope}·x + {args.intercept})")
    print(f"technique: {result.technique}")
    print(f"answers  : {len(result.ids)} of {len(relation)} tuples")
    for tid in sorted(result.ids):
        print(f"  - tuple {tid} ({relation.get(tid).label})")
    print(
        f"cost     : {result.page_accesses} page accesses "
        f"({result.candidates} candidates, {result.false_hits} false hits)"
    )
    return 0


def _load_relation(
    path: str,
    slopes_arg: str | None,
    shards: int = 1,
):
    """Parse a tuple file and build an engine (shared loader).

    Returns ``(relation, engine)`` where the engine is a
    :class:`DualIndexPlanner` or, with ``shards > 1``, a
    :class:`repro.shard.ShardedDualIndex` (same query surface)."""
    from repro.constraints import GeneralizedRelation, parse_tuple
    from repro.core import DualIndexPlanner, SlopeSet

    relation = GeneralizedRelation(name=os.path.basename(path))
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            relation.add(parse_tuple(text, dimension=2, label=f"line {line_no}"))
    if len(relation) == 0:
        return None, None
    if slopes_arg:
        slopes = SlopeSet(float(v) for v in slopes_arg.split(","))
    else:
        slopes = SlopeSet.uniform_angles(3)
    if shards > 1:
        from repro.shard import ShardedDualIndex

        return relation, ShardedDualIndex.build(
            relation, slopes, shards=shards
        )
    return relation, DualIndexPlanner.build(relation, slopes)


def _parse_query_file(path: str):
    """One query per line: ``ALL|EXIST <slope> <intercept> <GE|LE>``."""
    from repro.core import HalfPlaneQuery

    queries = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 4 or parts[0] not in ("ALL", "EXIST"):
                raise SystemExit(
                    f"{path}:{line_no}: expected "
                    f"'ALL|EXIST <slope> <intercept> <GE|LE>', got {text!r}"
                )
            theta = {"GE": ">=", "LE": "<=", ">=": ">=", "<=": "<="}.get(
                parts[3]
            )
            if theta is None:
                raise SystemExit(
                    f"{path}:{line_no}: theta must be GE or LE, got "
                    f"{parts[3]!r}"
                )
            queries.append(
                HalfPlaneQuery(parts[0], float(parts[1]), float(parts[2]), theta)
            )
    return queries


def _batch(args) -> int:
    import json as json_mod

    from repro.exec import BatchExecutor

    if args.tuples is None:
        if args.data_dir is None:
            print("batch: need --tuples or --data-dir", file=sys.stderr)
            return 2
        from repro.storage import open_engine

        planner = open_engine(args.data_dir)
    else:
        relation, planner = _load_relation(
            args.tuples, args.slopes, shards=args.shards
        )
        if relation is None:
            print("no tuples found", file=sys.stderr)
            return 1
        if args.data_dir is not None:
            from repro.storage import save_engine

            save_engine(planner, args.data_dir)
            print(f"saved engine to {args.data_dir}", file=sys.stderr)
    queries = _parse_query_file(args.queries)
    if not queries:
        print("no queries found", file=sys.stderr)
        return 1
    if hasattr(planner, "planners"):
        # The sharded facade owns per-shard batch executors and merges
        # their results/accounting.
        batch = planner.query_batch(queries)
    else:
        batch = BatchExecutor(planner).execute(queries)
    if args.json:
        print(json_mod.dumps(
            {
                "queries": [
                    {
                        "query": repr(query),
                        "ids": sorted(result.ids),
                        "technique": result.technique,
                        "cached": result.cached,
                    }
                    for query, result in zip(queries, batch.results)
                ],
                "page_accesses": batch.page_accesses,
                "cache_hits": batch.cache_hits,
                "cache_misses": batch.cache_misses,
                "exact_groups": batch.exact_groups,
                "vector_groups": batch.vector_groups,
                "sweep_leaves": batch.sweep_leaves,
                "refinement_pages": batch.refinement_pages,
            },
            indent=2,
        ))
        return 0
    for query, result in zip(queries, batch.results):
        suffix = " (cached)" if result.cached else ""
        print(f"{query!r} -> {sorted(result.ids)} "
              f"[{result.technique}{suffix}]")
    print(
        f"batch    : {len(queries)} queries, {batch.exact_groups} merged-"
        f"sweep groups + {batch.vector_groups} vectorized slope groups"
    )
    print(
        f"cost     : {batch.page_accesses} page accesses total "
        f"({batch.sweep_leaves} sweep leaves, "
        f"{batch.refinement_pages} refinement pages)"
    )
    print(f"cache    : {batch.cache_hits} hits, {batch.cache_misses} misses")
    return 0


#: Named harness workloads for ``repro explain``.
_EXPLAIN_WORKLOADS = {
    "fig9-medium": (2000, "medium", 3),
    "smoke": (500, "small", 3),
}


def _explain(args) -> int:
    import json as json_mod

    from repro.obs import explain as run_explain
    from repro.obs import render_explain
    from repro.obs.export import write_chrome_trace

    sources = [
        s for s in (args.workload, args.tuples, args.data_dir)
        if s is not None
    ]
    if len(sources) != 1:
        print("explain: give exactly one of --workload, --tuples or "
              "--data-dir", file=sys.stderr)
        return 2
    if args.data_dir is not None:
        if args.queries is None:
            print("explain: --data-dir needs --queries", file=sys.stderr)
            return 2
        from repro.storage import open_engine

        engine = open_engine(args.data_dir)
        queries = _parse_query_file(args.queries)
    elif args.workload is not None:
        from repro.bench import harness
        from repro.core import DualIndexPlanner, SlopeSet
        from repro.workloads import make_relation

        n, size, k = _EXPLAIN_WORKLOADS[args.workload]
        queries = []
        for qtype in ("EXIST", "ALL"):
            queries.extend(
                harness.queries_for(n, size, qtype, k, count=args.count)
            )
        if args.queries is not None:
            queries = _parse_query_file(args.queries)
        relation = make_relation(n, size, seed=harness.SEED)
        if args.shards > 1:
            from repro.shard import ShardedDualIndex

            engine = ShardedDualIndex.build(
                relation, SlopeSet.uniform_angles(k), shards=args.shards
            )
        else:
            engine = DualIndexPlanner.build(
                relation, SlopeSet.uniform_angles(k)
            )
    else:
        if args.queries is None:
            print("explain: --tuples needs --queries", file=sys.stderr)
            return 2
        relation, engine = _load_relation(
            args.tuples, args.slopes, shards=args.shards
        )
        if relation is None:
            print("no tuples found", file=sys.stderr)
            return 1
        queries = _parse_query_file(args.queries)
    if not queries:
        print("no queries found", file=sys.stderr)
        return 1

    report = run_explain(engine, queries, batch=args.batch)
    if args.json:
        print(json_mod.dumps(report.root.to_dict(), indent=2))
    else:
        print(render_explain(report))
    if args.chrome_out:
        write_chrome_trace(report.root, args.chrome_out)
        print(f"\nwrote chrome trace: {args.chrome_out} (open in Perfetto)")
    return 0


def parse_budget(text: str) -> float:
    """Parse a time budget: plain seconds or ``30s`` / ``2m`` / ``0.5h``."""
    text = text.strip().lower()
    factor = 1.0
    if text and text[-1] in "smh":
        factor = {"s": 1.0, "m": 60.0, "h": 3600.0}[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise SystemExit(f"invalid --budget {text!r} (e.g. 30s, 2m, 0.5h)")
    if value <= 0:
        raise SystemExit("--budget must be positive")
    return value * factor


def _fuzz(args) -> int:
    from repro.verify import (
        FuzzConfig,
        replay_repro,
        run_fault_scenario,
        run_fuzz,
    )
    from repro.verify.differential import WAIVER_BOUND_PER_MILLION

    if args.replay:
        findings = replay_repro(args.replay)
        if findings:
            print(f"repro still fails: {len(findings)} finding(s)")
            for finding in findings:
                print(f"  - {finding}")
            return 1
        print("repro no longer reproduces (fixed, or fault fired cleanly)")
        return 0
    if args.fault_demo:
        error, path = run_fault_scenario(seed=args.seed, out_dir=args.out)
        print(f"injected fault surfaced as {type(error).__name__}: {error}")
        print(f"repro written: {path}")
        return 0
    if args.recovery_demo:
        from repro.verify import run_recovery_scenario

        paths = run_recovery_scenario(seed=args.seed, out_dir=args.out)
        print("crashed mid-WAL-append and mid-checkpoint; both reopened "
              "from disk and the differential oracle accepted")
        for path in paths:
            print(f"repro written: {path}")
        return 0
    config = FuzzConfig(
        seed=args.seed,
        budget_seconds=parse_budget(args.budget),
        n_tuples=args.tuples,
        queries_per_round=args.queries,
        out_dir=args.out,
    )
    report = run_fuzz(config)
    print(report.summary())
    for path in report.repro_paths:
        print(f"  repro: {path}")
    if report.waivers_per_million > WAIVER_BOUND_PER_MILLION:
        print(f"boundary waivers: {report.waivers_per_million:.0f} per "
              f"million queries, over the bound of {WAIVER_BOUND_PER_MILLION}")
        return 1
    return 0 if report.ok else 1


def _smoke(args) -> int:
    import json

    from repro.bench.smoke import check_baseline, default_baseline, run_smoke

    baseline_path = args.baseline or default_baseline()
    if args.data_dir is not None:
        # Every default pager in this process now runs file-backed.
        os.environ["REPRO_DATA_DIR"] = args.data_dir
    registry = run_smoke(shards=args.shards, data_dir=args.data_dir)
    current = registry.collect()
    with open(args.out, "w") as handle:
        handle.write(registry.export_json())
        handle.write("\n")
    print(f"wrote {args.out} ({len(current['counters'])} counters)")

    if args.update_baseline:
        os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
        with open(baseline_path, "w") as handle:
            json.dump({"counters": current["counters"]}, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"updated baseline {baseline_path}")
        return 0
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path}; run with --update-baseline",
              file=sys.stderr)
        return 2
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    violations = check_baseline(current, baseline)
    new_keys = sorted(
        set(current["counters"]) - set(baseline.get("counters", {}))
    )
    if new_keys:
        print(f"note: {len(new_keys)} counters not in baseline "
              f"(e.g. {new_keys[0]})")
    if violations:
        print("perf-smoke FAILED:", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"perf-smoke OK: {len(baseline.get('counters', {}))} counters "
          f"within baseline")
    return 0


def _overhead(args) -> int:
    from repro.bench import overhead

    if args.serve:
        untraced, traced, paired = overhead.measure_serve(
            repeats=args.repeats, requests=args.requests,
            concurrency=args.concurrency, trace_sample=args.trace_sample,
        )
        # Gate on the best matched pair's delta: the leg minima above
        # are reported for context, but comparing them directly lets a
        # single lucky untraced draw fail (or a lucky traced draw pass)
        # the whole gate on a noisy shared runner.
        slack = overhead.SERVE_ABSOLUTE_SLACK
        allowed = untraced * args.budget + slack
        print(
            f"serve untraced best {untraced * 1000:.3f} ms, "
            f"traced best {traced * 1000:.3f} ms, "
            f"best paired delta {paired * 1000:+.3f} ms "
            f"(allowed {allowed * 1000:.3f} ms = budget "
            f"{args.budget:.0%} + {slack * 1000:.0f} ms slack)"
        )
        if paired > allowed:
            print(
                f"overhead: tracing cost exceeded budget "
                f"({paired * 1000:+.3f} ms > {allowed * 1000:.3f} ms)",
                file=sys.stderr,
            )
            return 1
        return 0
    untraced, traced = overhead.measure(repeats=args.repeats)
    slack = overhead.ABSOLUTE_SLACK
    limit = untraced * (1.0 + args.budget) + slack
    ratio = (traced - untraced) / untraced if untraced else 0.0
    print(
        f"untraced best {untraced * 1000:.3f} ms, "
        f"traced best {traced * 1000:.3f} ms "
        f"({ratio:+.1%} vs budget {args.budget:.0%} "
        f"+ {slack * 1000:.0f} ms slack)"
    )
    if traced > limit:
        print(
            f"overhead: traced run exceeded budget "
            f"({traced * 1000:.3f} ms > {limit * 1000:.3f} ms)",
            file=sys.stderr,
        )
        return 1
    return 0


def _save(args) -> int:
    from repro.storage import save_engine

    relation, engine = _load_relation(
        args.tuples, args.slopes, shards=args.shards
    )
    if relation is None:
        print("no tuples found", file=sys.stderr)
        return 1
    save_engine(engine, args.data_dir)
    kind = "sharded" if hasattr(engine, "planners") else "planner"
    print(f"saved {kind} engine ({len(relation)} tuples) to "
          f"{args.data_dir}")
    return 0


def _open(args) -> int:
    import json as json_mod

    from repro.storage import open_engine, read_catalog

    payload, seq, generation = read_catalog(args.data_dir)
    engine = open_engine(args.data_dir)
    if hasattr(engine, "planners"):
        planners = engine.planners
        summary = {
            "kind": "sharded",
            "shards": len(planners),
            "size": sum(p.index.size for p in planners),
            "pages": sum(
                p.index.pager.disk.allocated_pages for p in planners
            ),
        }
    else:
        planners = [engine]
        summary = {
            "kind": "planner",
            "technique": engine.technique,
            "size": engine.index.size,
            "pages": engine.index.pager.disk.allocated_pages,
            "slopes": list(engine.index.slopes),
            "commit_seq": seq,
            "catalog_generation": generation,
        }
    answers = None
    if args.queries:
        queries = _parse_query_file(args.queries)
        answers = [
            {"query": repr(q), "ids": sorted(engine.query(q).ids)}
            for q in queries
        ]
    if args.json:
        doc = dict(summary)
        if answers is not None:
            doc["answers"] = answers
        print(json_mod.dumps(doc, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key:18}: {value}")
        if answers is not None:
            for entry in answers:
                print(f"{entry['query']} -> {entry['ids']}")
    if hasattr(engine, "close"):
        engine.close()
    for planner in planners:
        planner.index.pager.disk.close()
    return 0


def _tune(args) -> int:
    import json

    from repro.obs.slopelog import SlopeLog, SlopeLogSnapshot
    from repro.storage.checkpoint import open_planner
    from repro.tune import apply_tune, propose

    if bool(args.queries) == bool(args.slope_log):
        print("tune needs exactly one evidence source: --queries FILE "
              "or --slope-log FILE", file=sys.stderr)
        return 2
    if args.apply and not args.out:
        print("--apply needs --out DIR (the new data directory)",
              file=sys.stderr)
        return 2
    if args.slope_log:
        with open(args.slope_log, encoding="utf-8") as handle:
            snapshot = SlopeLogSnapshot.from_dict(json.load(handle))
    else:
        log = SlopeLog()
        for query in _parse_query_file(args.queries):
            for slope in query.slope:
                log.record(slope, query.query_type)
        snapshot = log.snapshot()
    planner = open_planner(args.data_dir)
    try:
        decision = propose(snapshot, planner.index.slopes, k=args.k)
    finally:
        planner.index.pager.disk.close()
    report = decision.to_dict()
    if args.apply:
        apply_tune(args.data_dir, args.out, decision.learned)
        report["applied_to"] = args.out
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    pred = decision.prediction
    print(f"current S: {', '.join(f'{s:g}' for s in decision.current)}")
    print(f"learned S: {', '.join(f'{s:g}' for s in decision.learned)}")
    print(f"evidence: {decision.evidence} logged slopes")
    print(f"predicted cost ratio: {pred['predicted_cost_ratio']:.3f} "
          f"(expected nearest-anchor distance "
          f"{pred['expected_distance_current']:.4f} -> "
          f"{pred['expected_distance_learned']:.4f} rad)")
    print(f"worthwhile: {decision.worthwhile}")
    if args.apply:
        print(f"rebuilt into {args.out} (answers preserved; source "
              f"directory untouched)")
    elif decision.worthwhile:
        print("run again with --apply --out DIR to rebuild")
    return 0


def _serve(args) -> int:  # pragma: no cover - run-forever loop (CI leg)
    import asyncio

    from repro.serve.server import ServeConfig, serve_until_interrupted

    config = ServeConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        max_queue_depth=args.max_queue_depth,
        read_timeout=args.read_timeout,
        wal_checkpoint_bytes=int(args.wal_checkpoint_mb * (1 << 20)),
        auto_tune=args.auto_tune,
        tune_interval=args.tune_interval,
        tune_min_evidence=args.tune_min_evidence,
        trace_sample=args.trace_sample,
        slowlog_capacity=args.slowlog_capacity,
        slowlog_out=args.slowlog_out,
        trace_out=args.trace_out,
        cost_budget=args.cost_budget,
    )
    asyncio.run(serve_until_interrupted(config))
    return 0


def _loadgen_queries(args):
    if args.queries:
        return _parse_query_file(args.queries)
    from repro.bench.harness import queries_for

    n, size, k = _EXPLAIN_WORKLOADS[args.workload]
    return (queries_for(n, size, "EXIST", k, count=8)
            + queries_for(n, size, "ALL", k, count=8))


def _loadgen(args) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import run_loadgen

    report = asyncio.run(run_loadgen(
        args.host,
        args.port,
        _loadgen_queries(args),
        mode=args.mode,
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        warmup=args.warmup,
        trace=args.trace,
        trace_sample=args.trace_sample,
    ))
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if report["errors"] == 0 else 1


def _slowlog(args) -> int:
    import json

    from repro.verify.differential import write_repro
    from repro.verify.slowlog_replay import (
        entry_to_repro,
        load_entry,
        replay_entry,
    )

    entry = load_entry(args.log, index=args.entry, by=args.by)
    if args.repro_out:
        safe = "".join(
            ch if ch.isalnum() or ch in "-._" else "_"
            for ch in entry.trace_id)
        path = write_repro(
            entry_to_repro(entry, data_dir=args.data_dir),
            args.repro_out,
            f"slowlog-{safe}",
        )
        print(f"wrote {path}")
        return 0
    if args.replay:
        findings = replay_entry(entry, data_dir=args.data_dir)
        if args.json:
            print(json.dumps(findings, indent=2, sort_keys=True))
        elif findings:
            for finding in findings:
                print(json.dumps(finding, sort_keys=True))
        else:
            print(
                f"replayed {entry.trace_id}: answer "
                f"{entry.answer.get('count', '?')} ids "
                f"(digest {entry.answer.get('digest', '?')}), technique "
                f"{entry.technique}, accounting bit-identical")
        return 1 if findings else 0
    if args.json:
        print(json.dumps(entry.to_json(), indent=2, sort_keys=True))
        return 0
    print(f"{'trace_id':<22} {'lat_ms':>9} {'pages':>8} {'tech':>7} "
          f"{'ratio':>7}  reason")
    from repro.obs.slowlog import load_jsonl

    try:
        entries = load_jsonl(args.log)
    except (json.JSONDecodeError, KeyError):
        entries = [entry]
    key = {"latency": lambda e: e.latency_s,
           "pages": lambda e: e.pages}[args.by]
    for row in sorted(entries, key=key, reverse=True):
        ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
        print(f"{row.trace_id:<22} {row.latency_s * 1e3:>9.2f} "
              f"{row.pages:>8.1f} {row.technique or '-':>7} "
              f"{ratio:>7}  {row.reason}")
    return 0


def _top(args) -> int:
    from repro.serve.top import run_top

    iterations = 1 if args.once else args.iterations
    try:
        return run_top(
            args.host, args.metrics_port,
            interval=args.interval, iterations=iterations,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except OSError as exc:
        print(f"top: cannot reach {args.host}:{args.metrics_port}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
