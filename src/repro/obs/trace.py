"""Per-query trace contexts: span trees with I/O and time attribution.

A :class:`QueryTrace` is bound to (at most) one :class:`~repro.storage.pager.Pager`
and records a tree of :class:`Span` objects. Entering a span snapshots
the pager's :class:`~repro.storage.stats.IOStats` and buffer counters;
leaving it stores the inclusive delta, so nested spans attribute every
page access to the innermost phase that caused it without any per-access
hook in the storage engine.

Hot paths report through the module-level :func:`span` / :func:`incr`
functions. With no active trace these are a global load plus a ``None``
check — the no-op mode costs nothing measurable and records nothing, so
disabling tracing can never change query results or counters.

Span names are dotted: the first segment is the *phase* (``plan``,
``descend``, ``sweep``, ``fetch``, ``verify``, ``build``, ``maintain``),
the rest is free-form detail (``sweep.primary``, ``sweep.app1``).

Multi-pager traces
------------------
A sharded engine runs one query against N independent pager stacks. The
trace keeps a *pager context stack*: a span measures the innermost
explicitly-bound pager (its own ``pager=`` argument, else the nearest
ancestor's), and records which one as :attr:`Span.pager_token`. The
token makes page aggregation exact: a child measured on the *same*
pager is already inside its parent's delta, while a child measured on a
*different* pager (another shard) is disjoint work that must be added.
:meth:`Span.inclusive_pages` / :meth:`Span.phase_pages` implement that
accounting, so exclusive per-phase pages always sum to the inclusive
total — the invariant ``repro explain`` asserts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.storage.stats import IOStats


@dataclass
class Span:
    """One timed, I/O-attributed phase of a query (inclusive of children)."""

    name: str
    meta: dict = field(default_factory=dict)
    elapsed: float = 0.0  # seconds, inclusive
    io: IOStats = field(default_factory=IOStats)
    buffer_hits: int = 0
    buffer_misses: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: Offset of the span's start from the trace's start, in seconds
    #: (drives the Chrome trace-event timeline).
    start: float = 0.0
    #: Identity of the pager this span's ``io`` was measured on (``None``
    #: when the span measured nothing). Children sharing the token are
    #: already inside this span's delta; children with a different token
    #: (another shard's pager) are disjoint work.
    pager_token: int | None = None
    #: Set by :meth:`QueryTrace.close` on the root once its ``io`` has
    #: been overwritten with the inclusive sum of its children — the
    #: children are then covered by construction, whatever their tokens.
    aggregated: bool = False

    @property
    def phase(self) -> str:
        """The span's phase bucket (first dotted segment of the name)."""
        return self.name.split(".", 1)[0]

    @property
    def pages(self) -> int:
        """Logical page accesses charged to this span (inclusive)."""
        return self.io.logical_reads + self.io.logical_writes

    @property
    def hit_ratio(self) -> float:
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def _covers(self, child: "Span") -> bool:
        """True when ``child``'s measured I/O is already inside this
        span's own delta (same pager, both actually measured — or this
        span's io was aggregated from its children at close time)."""
        if self.aggregated:
            return True
        return (
            child.pager_token is not None
            and child.pager_token == self.pager_token
        )

    def inclusive_io(self) -> IOStats:
        """I/O of the whole subtree, exact across pagers: this span's
        measured delta plus every child subtree measured on a *different*
        pager (same-pager children are already inside the delta)."""
        total = self.io.snapshot()
        for child in self.children:
            if not self._covers(child):
                part = child.inclusive_io()
                total.logical_reads += part.logical_reads
                total.logical_writes += part.logical_writes
                total.physical_reads += part.physical_reads
                total.physical_writes += part.physical_writes
                total.allocations += part.allocations
                total.frees += part.frees
        return total

    def inclusive_pages(self) -> int:
        """Logical page accesses of the whole subtree (multi-pager safe)."""
        total = self.pages
        for child in self.children:
            if not self._covers(child):
                total += child.inclusive_pages()
        return total

    def inclusive_buffer(self) -> tuple[int, int]:
        """``(hits, misses)`` of the whole subtree (multi-pager safe)."""
        hits, misses = self.buffer_hits, self.buffer_misses
        for child in self.children:
            if not self._covers(child):
                h, m = child.inclusive_buffer()
                hits += h
                misses += m
        return hits, misses

    def phase_pages(self) -> dict[str, int]:
        """Logical page accesses per phase, attributed to the *innermost*
        span that caused them (exclusive accounting over the subtree).

        The accounting is pager-token aware, so per-shard spans measured
        on disjoint pagers attribute correctly and the exclusive values
        always sum to :meth:`inclusive_pages` of the subtree root.
        """
        totals: dict[str, int] = {}
        for node in self.walk():
            exclusive = node.inclusive_pages() - sum(
                c.inclusive_pages() for c in node.children
            )
            totals[node.phase] = totals.get(node.phase, 0) + exclusive
        return totals

    def phase_times(self) -> dict[str, float]:
        """Exclusive wall seconds per phase (children subtracted; clamped
        at zero against timer jitter)."""
        totals: dict[str, float] = {}
        for node in self.walk():
            exclusive = node.elapsed - sum(c.elapsed for c in node.children)
            totals[node.phase] = totals.get(node.phase, 0.0) + max(
                0.0, exclusive
            )
        return totals

    def total_counters(self) -> dict[str, float]:
        """Counters summed over the whole subtree."""
        totals: dict[str, float] = {}
        for node in self.walk():
            for key, value in node.counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def to_dict(self) -> dict:
        """JSON-ready representation (schema documented in the README)."""
        return {
            "name": self.name,
            "meta": dict(self.meta),
            "start_ms": self.start * 1000.0,
            "elapsed_ms": self.elapsed * 1000.0,
            "io": self.io.as_dict(),
            "buffer": {"hits": self.buffer_hits, "misses": self.buffer_misses},
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }


class QueryTrace:
    """A span-tree recorder bound to one pager stack.

    Parameters
    ----------
    pager:
        The storage stack whose counters the spans snapshot. May be left
        ``None`` and bound later by the first instrumented layer that
        knows its pager (planners do this) — until then spans carry only
        wall time and counters.
    name:
        Root span name.
    """

    def __init__(self, pager=None, name: str = "trace", meta: dict | None = None) -> None:
        self.pager = pager
        self.root = Span(name, dict(meta or {}))
        self._stack: list[Span] = [self.root]
        #: Pager context stack: a span measures the innermost explicitly
        #: bound pager (its own ``pager=``, else the nearest ancestor's).
        self._pagers: list = [pager]
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, pager=None, **meta):
        """Open a child span of the innermost open span.

        ``pager=`` rebinds the measurement context for this span and its
        descendants (per-shard sub-queries pass their own pager); without
        it the span inherits the nearest ancestor's pager. The first
        pager ever seen also late-binds the trace itself.
        """
        if pager is not None and self.pager is None:
            self.pager = pager
        effective = pager if pager is not None else self._pagers[-1]
        if effective is None:
            effective = self.pager
        node = Span(name, {k: str(v) for k, v in meta.items()})
        node.start = time.perf_counter() - self._started
        node.pager_token = id(effective) if effective is not None else None
        parent = self._stack[-1]
        parent.children.append(node)
        self._stack.append(node)
        self._pagers.append(effective)
        before_io = effective.stats.snapshot() if effective is not None else None
        before_hits = effective.buffer.hits if effective is not None else 0
        before_misses = effective.buffer.misses if effective is not None else 0
        start = time.perf_counter()
        try:
            yield node
        finally:
            node.elapsed = time.perf_counter() - start
            if before_io is not None:
                node.io = effective.stats.delta_since(before_io)
                node.buffer_hits = effective.buffer.hits - before_hits
                node.buffer_misses = effective.buffer.misses - before_misses
            self._pagers.pop()
            self._stack.pop()

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter on the innermost open span."""
        self._stack[-1].incr(name, amount)

    def close(self) -> Span:
        """Finalise the root span (sums children; idempotent).

        The root measured nothing itself (it has no pager snapshot), so
        its totals are the token-aware inclusive sums of its children —
        exact even when children measured different shard pagers.
        """
        root = self.root
        root.elapsed = time.perf_counter() - self._started
        if root.children:
            root.io = IOStats()
            root.buffer_hits = root.buffer_misses = 0
            for child in root.children:
                part = child.inclusive_io()
                root.io.logical_reads += part.logical_reads
                root.io.logical_writes += part.logical_writes
                root.io.physical_reads += part.physical_reads
                root.io.physical_writes += part.physical_writes
                root.io.allocations += part.allocations
                root.io.frees += part.frees
                hits, misses = child.inclusive_buffer()
                root.buffer_hits += hits
                root.buffer_misses += misses
            root.aggregated = True
        return root

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return self.close().to_dict()

    def export_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable span tree (the tree ``repro explain`` prints)."""
        self.close()
        lines: list[str] = []
        _render_span(self.root, "", True, True, lines)
        return "\n".join(lines)


def _render_span(node: Span, prefix: str, is_last: bool, is_root: bool,
                 lines: list[str]) -> None:
    connector = "" if is_root else ("└─ " if is_last else "├─ ")
    label = node.name
    if node.meta:
        label += " [" + " ".join(f"{k}={v}" for k, v in node.meta.items()) + "]"
    io = node.inclusive_io()
    stats = (
        f"{node.elapsed * 1000:8.3f} ms  "
        f"{io.logical_reads + io.logical_writes:5d} pages "
        f"({io.logical_reads}r+{io.logical_writes}w, "
        f"{io.physical_reads + io.physical_writes} physical"
    )
    hits, misses = node.inclusive_buffer()
    if hits + misses:
        stats += f", hit {hits / (hits + misses):.0%}"
    stats += ")"
    if node.counters:
        stats += "  " + " ".join(
            f"{k}={v:g}" for k, v in sorted(node.counters.items())
        )
    lines.append(f"{prefix}{connector}{label:<28s} {stats}")
    child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(node.children):
        _render_span(child, child_prefix, i == len(node.children) - 1, False,
                     lines)


# ----------------------------------------------------------------------
# module-level hooks (the hot-path API)
# ----------------------------------------------------------------------
_ACTIVE: QueryTrace | None = None


class _NullSpan:
    """Reusable no-op context manager for the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def current() -> QueryTrace | None:
    """The active trace, or ``None`` when tracing is disabled."""
    return _ACTIVE


@contextmanager
def tracing(trace: QueryTrace):
    """Activate a trace for the dynamic extent of the block.

    Traces do not nest: activating a second trace raises, because two
    recorders snapshotting one pager would double-charge every access.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a trace is already active")
    _ACTIVE = trace
    try:
        yield trace
    finally:
        _ACTIVE = None
        trace.close()


def span(name: str, pager=None, **meta):
    """Open a span on the active trace; no-op when tracing is disabled."""
    trace = _ACTIVE
    if trace is None:
        return _NULL_SPAN
    return trace.span(name, pager=pager, **meta)


def incr(name: str, amount: float = 1.0) -> None:
    """Bump a counter on the active span; no-op when tracing is disabled."""
    trace = _ACTIVE
    if trace is not None:
        trace.incr(name, amount)
