"""Measurements behind ``repro overhead``, the tracing wall-time gate.

The observability layer's contract is that tracing is cheap: disabled,
the hooks are one global load and a ``None`` check; enabled, spans only
snapshot counters at phase boundaries. This tool measures both modes
over the deterministic smoke query workload and fails when the traced
run exceeds the untraced run by more than a fractional budget (CI uses
5%).

Timing methodology: wall time is noisy on shared CI runners, so each
mode takes the **best of N repeats** (minimum is the standard robust
estimator for "how fast can this code run"), and the comparison adds a
small absolute slack so microsecond-scale workloads can't fail on
scheduler jitter alone.

``--serve`` gates the *request*-tracing layer instead: the same engine
is served from an embedded server with ``trace_sample`` off and on in
alternation, and each closed-loop load run is timed end to end. Serve
runs are hundreds of milliseconds of socket I/O, where shared-runner
jitter is large and drifts over time, so the serve leg scores matched
*pairs* — each (off, on) pair runs back to back and the gate checks
the best pair's delta, never one leg's lucky minimum against the
other's typical draw. This is the CI leg holding the serve path's
tracing + slow-query log + cost watchdog to its ≤3% budget.
"""

from __future__ import annotations

import asyncio
import time

from repro.bench import harness
from repro.bench.smoke import SMOKE_K, SMOKE_N, SMOKE_QUERIES, SMOKE_SIZE
from repro.core.query import ALL, EXIST
from repro.obs.trace import QueryTrace, tracing

#: Absolute slack added to the budget (seconds) — guards tiny workloads
#: against pure timer/scheduler noise.
ABSOLUTE_SLACK = 0.010

#: Serve-leg slack (seconds). The serve gate times a closed-loop socket
#: workload end to end, and on small shared (often single-core) CI
#: runners identical configurations reproduce with roughly ±6-7 ms of
#: jitter per leg even under best-of-N — GIL handoffs around
#: ``socket.send`` amplify microsecond-scale bookkeeping several-fold.
#: The slack absorbs that measured floor; the fractional budget still
#: catches real regressions (re-adding per-insert ranking sorts or a
#: denser span cadence each cost more than this on their own).
SERVE_ABSOLUTE_SLACK = 0.015


def _run_workload(planner, queries, traced: bool) -> float:
    start = time.perf_counter()
    if traced:
        for query in queries:
            with tracing(QueryTrace(name="overhead")):
                planner.query(query)
    else:
        for query in queries:
            planner.query(query)
    return time.perf_counter() - start


def _smoke_workload():
    """The perf-smoke dual planner and its EXIST + ALL queries."""
    planner = harness.dual_planner(SMOKE_N, SMOKE_SIZE, SMOKE_K)
    queries = []
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(
            SMOKE_N, SMOKE_SIZE, qtype, SMOKE_K, count=SMOKE_QUERIES))
    return planner, queries


def measure(repeats: int = 5) -> tuple[float, float]:
    """``(untraced_best, traced_best)`` seconds over the smoke queries."""
    planner, queries = _smoke_workload()
    # Warm both paths once (buffer pool, key caches) so neither mode
    # pays cold-start costs the other already amortized.
    _run_workload(planner, queries, traced=False)
    _run_workload(planner, queries, traced=True)
    untraced = min(
        _run_workload(planner, queries, traced=False)
        for _ in range(repeats)
    )
    traced = min(
        _run_workload(planner, queries, traced=True) for _ in range(repeats)
    )
    return untraced, traced


def _serve_elapsed(
    planner, queries, requests: int, concurrency: int, trace_sample: int
) -> float:
    """One timed closed-loop load run against an embedded server."""
    from repro.serve.loadgen import run_loadgen
    from repro.serve.testing import ServerThread

    server = ServerThread(
        engine=planner, trace_sample=trace_sample).start()
    try:
        report = asyncio.run(run_loadgen(
            "127.0.0.1", server.server.port, queries,
            mode="closed", requests=requests, concurrency=concurrency,
            warmup=min(64, requests),
            # Client-minted ids on every request, but the *server* owns
            # the span cadence: client-forced sampling would trace
            # nearly every coalesced batch and measure the span hooks
            # (gated separately), not the request-tracing layer.
            trace=bool(trace_sample),
            trace_sample=0,
        ))
        if report["errors"]:
            raise RuntimeError(
                f"loadgen reported {report['errors']} errors")
        return report["elapsed_s"]
    finally:
        server.stop()


def measure_serve(
    repeats: int = 3,
    requests: int = 400,
    concurrency: int = 8,
    trace_sample: int = 16,
) -> tuple[float, float, float]:
    """``(off_best, on_best, best_paired_delta)`` serve-path seconds.

    Both modes answer the same closed-loop workload; the traced mode
    runs with per-request ids, the cost watchdog, the slow-query log,
    and a span tree every ``trace_sample`` requests — the full
    production observability surface, not a stripped-down one. The
    default cadence (16) is the one the CI serve job runs ``repro
    serve`` at; span trees are the one per-request knob, and the gate
    prices them at the rate production actually pays.
    """
    planner, queries = _smoke_workload()
    # Interleave the two modes (off, on, off, on, ...) rather than
    # timing all of one then all of the other: wall-clock drift on a
    # shared runner (thermal, noisy neighbours) then lands on both
    # legs instead of inflating whichever ran second. Each (off, on)
    # pair is a matched back-to-back experiment; the gate scores the
    # *best pair's* delta, so one leg drawing a lucky quiet window that
    # the other never sees cannot fake (or mask) an overhead.
    offs, ons = [], []
    for _ in range(repeats):
        offs.append(_serve_elapsed(
            planner, queries, requests, concurrency, 0))
        ons.append(_serve_elapsed(
            planner, queries, requests, concurrency, trace_sample))
    paired = min(b - a for a, b in zip(offs, ons))
    return min(offs), min(ons), paired
