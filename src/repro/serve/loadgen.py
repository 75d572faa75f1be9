"""Load generator for the serve layer (``repro loadgen``).

Two standard load models:

- **closed loop** — ``concurrency`` connections, each issuing its next
  query only after the previous answer arrives. Throughput is
  latency-bound; this is the model CI gates (`BENCH_loadgen.json`).
- **open loop** — queries fired at a fixed ``rate`` regardless of
  completions, over a pipelined connection pool. This is the model
  that actually exercises admission control: when the server can't
  keep up, the generator does not slow down, and OVERLOADED responses
  (counted, not failed) are the expected outcome.

The report is plain JSON: request counts, elapsed wall time, QPS,
p50/p90/p99/p99.9 latency, error counts, a per-op breakdown table
(latency quantiles and, when the server runs with tracing on, the
server-attributed pages per query), plus a per-op slope histogram of
the issued traffic (:func:`slope_summary`), the client-side view of the
slope distribution the server's own slope log sees. Comparing the two is the
quick sanity check that a ``repro tune`` decision was driven by the
traffic you think you sent.

With ``trace=True`` every request carries a client-minted trace
context (the wire ``trace`` field), and every ``trace_sample``-th one
asks for span-tree sampling — the end-to-end id propagation the serve
CI job exercises.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Sequence

from repro.core.query import HalfPlaneQuery
from repro.obs.slopelog import bin_center_slope, bin_of
from repro.serve.client import ReproClient


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def slope_summary(queries: Sequence[HalfPlaneQuery],
                  top: int = 8) -> dict:
    """Per-op slope histogram of a query mix (angle-space bins).

    Bins match :mod:`repro.obs.slopelog` (``atan`` of the slope over 64
    fixed bins), so this client-side summary lines up bin-for-bin with
    the server's slope log. Per query type the report carries the total
    count and the ``top`` heaviest bins as ``{bin, center_slope,
    count}`` rows, heaviest first.
    """
    per_op: dict[str, dict[int, int]] = {}
    for query in queries:
        bins = per_op.setdefault(query.query_type, {})
        for slope in query.slope:
            bins[bin_of(slope)] = bins.get(bin_of(slope), 0) + 1
    out: dict[str, dict] = {}
    for op, bins in sorted(per_op.items()):
        heaviest = sorted(
            bins.items(), key=lambda item: (-item[1], item[0]))[:top]
        out[op] = {
            "count": sum(bins.values()),
            "distinct_bins": len(bins),
            "top_bins": [
                {
                    "bin": i,
                    "center_slope": round(bin_center_slope(i), 6),
                    "count": n,
                }
                for i, n in heaviest
            ],
        }
    return out


def summarize(latencies_s: list[float]) -> dict:
    """Latency summary in milliseconds (p50/p90/p99/p99.9/mean/max)."""
    ordered = sorted(latencies_s)
    count = len(ordered)
    return {
        "p50": _percentile(ordered, 0.50) * 1e3,
        "p90": _percentile(ordered, 0.90) * 1e3,
        "p99": _percentile(ordered, 0.99) * 1e3,
        "p99_9": _percentile(ordered, 0.999) * 1e3,
        "mean": (sum(ordered) / count if count else 0.0) * 1e3,
        "max": (ordered[-1] if ordered else 0.0) * 1e3,
    }


def per_op_breakdown(samples: list[tuple]) -> dict:
    """The per-op table: latency quantiles and (when the server
    attributed them) pages per query, keyed by query type.

    ``samples`` are ``(latency_s, op, pages | None)`` rows; pages are
    present only against a tracing-enabled server, so the column is
    omitted rather than reported as zero when absent.
    """
    groups: dict[str, dict] = {}
    for took, op, pages in samples:
        group = groups.setdefault(op, {"lat": [], "pages": []})
        group["lat"].append(took)
        if pages is not None:
            group["pages"].append(float(pages))
    out: dict[str, dict] = {}
    for op, group in sorted(groups.items()):
        ordered = sorted(group["lat"])
        entry = {
            "count": len(ordered),
            "latency_ms": {
                "p50": _percentile(ordered, 0.50) * 1e3,
                "p99": _percentile(ordered, 0.99) * 1e3,
                "p99_9": _percentile(ordered, 0.999) * 1e3,
                "mean": (sum(ordered) / len(ordered)) * 1e3,
            },
        }
        if group["pages"]:
            pages = group["pages"]
            entry["pages"] = {
                "mean": sum(pages) / len(pages),
                "max": max(pages),
            }
        out[op] = entry
    return out


async def run_loadgen(
    host: str,
    port: int,
    queries: Sequence[HalfPlaneQuery],
    mode: str = "closed",
    requests: int = 1000,
    concurrency: int = 8,
    rate: float = 1000.0,
    warmup: int = 0,
    trace: bool = False,
    trace_sample: int = 0,
) -> dict:
    """Drive a server and measure it; returns the report dict.

    ``queries`` are issued round-robin. ``warmup`` requests are run
    (closed-loop, excluded from the measurement) first, so caches and
    code paths are hot before the clock starts. With ``trace``, each
    request carries a client-minted trace id (and every
    ``trace_sample``-th requests span-tree sampling).
    """
    if not queries:
        raise ValueError("loadgen needs at least one query")
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    envelope_for = _make_enveloper(trace, trace_sample)
    if warmup:
        await _closed_loop(host, port, queries, warmup,
                           min(concurrency, warmup), _make_enveloper(False, 0))
    started = time.monotonic()
    if mode == "closed":
        samples, errors, overloaded = await _closed_loop(
            host, port, queries, requests, concurrency, envelope_for)
    else:
        samples, errors, overloaded = await _open_loop(
            host, port, queries, requests, rate, concurrency, envelope_for)
    elapsed = time.monotonic() - started
    latencies = [took for took, _op, _pages in samples]
    completed = len(latencies)
    report = {
        "mode": mode,
        "requests": requests,
        "completed": completed,
        "errors": errors,
        "overloaded": overloaded,
        "concurrency": concurrency,
        "elapsed_s": elapsed,
        "qps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_ms": summarize(latencies),
        "per_op": per_op_breakdown(samples),
        "slopes": slope_summary(queries),
    }
    if trace:
        report["traced"] = True
    return report


async def _closed_loop(host, port, queries, requests, concurrency,
                       envelope_for):
    samples: list[tuple] = []
    errors = 0
    overloaded = 0
    remaining = iter(range(requests))
    lock = asyncio.Lock()

    async def worker(worker_index: int) -> None:
        nonlocal errors, overloaded
        client = await ReproClient.connect(host, port)
        try:
            while True:
                async with lock:
                    try:
                        n = next(remaining)
                    except StopIteration:
                        return
                query = queries[n % len(queries)]
                begin = time.monotonic()
                response = await client.request(
                    envelope_for(n, query))
                took = time.monotonic() - begin
                if response.get("ok"):
                    samples.append(
                        (took, query.query_type, response.get("pages")))
                elif _code(response) == "OVERLOADED":
                    overloaded += 1
                else:
                    errors += 1
        finally:
            await client.close()

    await asyncio.gather(
        *(worker(i) for i in range(max(1, concurrency))))
    return samples, errors, overloaded


async def _open_loop(host, port, queries, requests, rate, connections,
                     envelope_for):
    """Fixed arrival rate over a pool of pipelined connections."""
    if rate <= 0:
        raise ValueError(f"open-loop rate must be positive, got {rate}")
    clients = [
        await ReproClient.connect(host, port)
        for _ in range(max(1, connections))
    ]
    samples: list[tuple] = []
    errors = 0
    overloaded = 0

    async def fire(n: int) -> None:
        nonlocal errors, overloaded
        query = queries[n % len(queries)]
        begin = time.monotonic()
        try:
            response = await clients[n % len(clients)].request(
                envelope_for(n, query))
        except (ConnectionError, OSError):
            errors += 1
            return
        took = time.monotonic() - begin
        if response.get("ok"):
            samples.append(
                (took, query.query_type, response.get("pages")))
        elif _code(response) == "OVERLOADED":
            overloaded += 1
        else:
            errors += 1

    interval = 1.0 / rate
    epoch = time.monotonic()
    tasks = []
    for n in range(requests):
        target = epoch + n * interval
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(fire(n)))
    await asyncio.gather(*tasks)
    for client in clients:
        await client.close()
    return samples, errors, overloaded


def _make_enveloper(trace: bool, trace_sample: int):
    """Request-envelope factory; with tracing, mints per-request ids.

    Ids are ``lg-<run prefix>-<request #>`` so a server-side slowlog
    entry points straight back at the generating request.
    """
    if not trace:
        return lambda n, query: _envelope(query)
    prefix = f"lg-{os.urandom(3).hex()}"

    def build(n: int, query: HalfPlaneQuery) -> dict:
        context: dict = {"id": f"{prefix}-{n:08x}"}
        if trace_sample and n % trace_sample == 0:
            context["sampled"] = True
        return _envelope(query, context)

    return build


def _envelope(query: HalfPlaneQuery, trace: dict | None = None) -> dict:
    from repro.serve.protocol import query_to_request

    return query_to_request(query, rid=0, trace=trace)


def _code(response: dict) -> str:
    return (response.get("error") or {}).get("code", "")
