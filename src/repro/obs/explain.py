"""The ``repro explain`` report: traced execution with checked attribution.

:func:`explain` runs one query (or a batch) under a fresh
:class:`~repro.obs.trace.QueryTrace` and distills the span tree into an
:class:`ExplainReport`: exclusive per-phase page/time attribution,
B+-tree descent depths, buffer hit ratios, executor cache outcomes, and
per-index (per-shard) work rows. It *asserts* the accounting identity
the rest of the tooling relies on — the exclusive per-phase pages must
sum exactly to the trace's inclusive total (token-aware across shard
pagers) — raising :class:`ExplainInvariantError` on any mismatch, so a
broken attribution can never be silently rendered.

Explain never changes answers: tracing is observational (snapshot
deltas, no behavioural branches), and the differential verifier runs an
``explain`` engine against the oracle to enforce exactly that (see
:mod:`repro.verify.differential`).

This module imports no engine code — any object with ``query`` /
``query_batch`` works — so it sits below :mod:`repro.core` in the
import graph and the CLI can compose it with every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.trace import QueryTrace, Span, tracing


class ExplainInvariantError(AssertionError):
    """Exclusive per-phase attribution failed to sum to the inclusive
    total — a bug in span accounting, never a user error."""


@dataclass
class ExplainReport:
    """Everything ``repro explain`` renders, plus the raw span tree."""

    root: Span
    results: list = field(default_factory=list)
    #: Exclusive logical pages per phase (sums to ``total_pages``).
    phase_pages: dict[str, int] = field(default_factory=dict)
    #: Exclusive wall seconds per phase.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Inclusive logical pages of the whole trace.
    total_pages: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    #: ``index name -> {"pages", "queries"}`` rows (shards appear as
    #: ``shard0``, ``shard1``, … via the planner's ``index=`` span meta).
    index_rows: dict[str, dict] = field(default_factory=dict)
    #: ``tree name -> deepest descent height`` observed.
    descent_heights: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0


def _check_attribution(root: Span, phase_pages: dict[str, int]) -> int:
    """The identity every report is gated on: Σ exclusive == inclusive."""
    total = root.inclusive_pages()
    attributed = sum(phase_pages.values())
    if attributed != total:
        raise ExplainInvariantError(
            f"exclusive per-phase pages sum to {attributed}, "
            f"inclusive total is {total}"
        )
    return total


def _analyze(root: Span, results: list, cache_hits: int = 0,
             cache_misses: int = 0) -> ExplainReport:
    report = ExplainReport(
        root=root,
        results=results,
        phase_pages=root.phase_pages(),
        phase_times=root.phase_times(),
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )
    report.total_pages = _check_attribution(root, report.phase_pages)
    report.buffer_hits, report.buffer_misses = root.inclusive_buffer()
    for node in root.walk():
        if node.phase in ("query", "batch") and "index" in node.meta:
            row = report.index_rows.setdefault(
                node.meta["index"], {"pages": 0, "queries": 0}
            )
            row["pages"] += node.inclusive_pages()
            row["queries"] += 1
        if node.phase == "descend" and "height" in node.meta:
            tree = node.meta.get("tree", "?")
            height = int(node.meta["height"])
            if height > report.descent_heights.get(tree, -1):
                report.descent_heights[tree] = height
    return report


def explain(engine, queries: Sequence, batch: bool = False) -> ExplainReport:
    """Run ``queries`` against ``engine`` under a fresh trace and distill
    the checked report.

    ``batch=True`` routes through ``engine.query_batch`` (executor
    cache/merge/vectorize outcomes appear in the report); otherwise each
    query runs through ``engine.query`` sequentially.
    """
    queries = list(queries)
    trace = QueryTrace(name="explain")
    cache_hits = cache_misses = 0
    with tracing(trace):
        if batch:
            batch_result = engine.query_batch(queries)
            results = list(batch_result.results)
            cache_hits = batch_result.cache_hits
            cache_misses = batch_result.cache_misses
        else:
            results = [engine.query(q) for q in queries]
            cache_hits = sum(1 for r in results if r.cached)
            cache_misses = len(results) - cache_hits
    return _analyze(trace.close(), results, cache_hits, cache_misses)


def traced_answer(engine, query):
    """One query under a throwaway trace, attribution checked — the
    differential verifier's ``explain`` engine (must equal the oracle)."""
    trace = QueryTrace(name="explain")
    with tracing(trace):
        result = engine.query(query)
    root = trace.close()
    _check_attribution(root, root.phase_pages())
    return result


def render_explain(report: ExplainReport) -> str:
    """The human-readable ``repro explain`` output."""
    from repro.obs.trace import _render_span

    lines: list[str] = []
    _render_span(report.root, "", True, True, lines)
    lines.append("")
    lines.append("phase attribution (exclusive pages / exclusive ms):")
    for phase in sorted(report.phase_pages):
        lines.append(
            f"  {phase:<12s} {report.phase_pages[phase]:6d} pages"
            f"  {report.phase_times.get(phase, 0.0) * 1000:9.3f} ms"
        )
    lines.append(
        f"  {'total':<12s} {sum(report.phase_pages.values()):6d} pages"
        f"  == inclusive {report.total_pages} (checked)"
    )
    if report.index_rows:
        lines.append("")
        lines.append("per-index work:")
        for name in sorted(report.index_rows):
            row = report.index_rows[name]
            lines.append(
                f"  {name:<12s} {row['pages']:6d} pages"
                f"  {row['queries']:4d} queries"
            )
    if report.descent_heights:
        lines.append("")
        lines.append("b+-tree descents (max height):")
        for tree in sorted(report.descent_heights):
            lines.append(f"  {tree:<20s} height {report.descent_heights[tree]}")
    lines.append("")
    lines.append(
        f"buffer: {report.buffer_hits} hits / {report.buffer_misses} misses"
        f" (ratio {report.hit_ratio:.0%})"
    )
    lines.append(
        f"cache: {report.cache_hits} hits / {report.cache_misses} misses"
    )
    lines.append(
        "answers: "
        + " ".join(str(len(r.ids)) for r in report.results)
        + " tuples per query"
    )
    return "\n".join(lines)
