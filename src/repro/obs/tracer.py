"""Request-scoped trace contexts for the serve path.

A :class:`TraceContext` is the small identity that rides with one wire
request end to end: a client mints (or the server assigns) a ``trace_id``,
the server decides whether the request is *sampled* (gets a full
:class:`~repro.obs.trace.QueryTrace` span tree) and publishes the
context through the module-level hook below while the request's batch
executes. Downstream layers — the batch executor and the sharded
facade — read :func:`context` to tag their spans and events with the
id, without any plumbing through their signatures.

The hook follows the same zero-overhead contract as
:mod:`repro.obs.trace` and :mod:`repro.obs.slopelog`: with no context
installed, :func:`context` is one global load returning ``None``, and
nothing downstream changes — answers, page accounting, and metrics are
bit-identical with tracing off.

Concurrency: the hook is a plain module global, not a thread-local.
The serve layer executes all engine work on one dedicated thread, and
the sharded facade runs its shards in turn on the calling thread, so at
most one batch (and therefore one request context) is live at a time.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass

#: Wire-format bounds for a trace id (hex-ish opaque token).
MAX_TRACE_ID = 64


@dataclass(frozen=True)
class TraceContext:
    """Identity of one traced wire request."""

    trace_id: str
    #: Sampled requests additionally record a full span tree; every
    #: traced request (sampled or not) gets id-tagged metrics/slowlog
    #: entries.
    sampled: bool = False

    def payload(self) -> dict:
        """JSON-ready form (the wire ``"trace"`` field)."""
        return {"id": self.trace_id, "sampled": self.sampled}


def valid_trace_id(value) -> bool:
    """True when ``value`` is usable as a wire trace id."""
    return (
        isinstance(value, str)
        and 0 < len(value) <= MAX_TRACE_ID
        and value.isprintable()
    )


def from_payload(data) -> TraceContext | None:
    """Rebuild a context from its :meth:`TraceContext.payload` form;
    ``None`` for missing/unusable payloads (the caller treats that as
    an untraced request, never an error)."""
    if not isinstance(data, dict):
        return None
    trace_id = data.get("id")
    if not valid_trace_id(trace_id):
        return None
    return TraceContext(trace_id, bool(data.get("sampled", False)))


# ----------------------------------------------------------------------
# the module-level hook
# ----------------------------------------------------------------------
_CONTEXT: TraceContext | None = None


def context() -> TraceContext | None:
    """The request context active right now, or ``None``."""
    return _CONTEXT


@contextmanager
def request_context(ctx: TraceContext | None):
    """Install ``ctx`` for the dynamic extent of the block.

    Unlike span traces, contexts may nest (a replay inside a traced
    request is harmless): the previous context is saved and restored.
    Passing ``None`` is a no-op block, so call sites need no branch.
    """
    global _CONTEXT
    if ctx is None:
        yield None
        return
    previous = _CONTEXT
    _CONTEXT = ctx
    try:
        yield ctx
    finally:
        _CONTEXT = previous


# ----------------------------------------------------------------------
# id minting + sampling
# ----------------------------------------------------------------------
class RequestTracer:
    """Mints trace ids and makes per-request sampling decisions.

    ``sample_every=N`` samples every Nth traced request (deterministic
    round-robin, so a load test with 2N requests always produces span
    trees); ``0`` disables span-tree sampling while ids and the
    watchdog stay on. Ids are ``<process-prefix>-<seq>`` — unique
    across processes with overwhelming probability, orderable within
    one.
    """

    def __init__(self, sample_every: int = 0, prefix: str | None = None) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        self.prefix = prefix if prefix is not None else os.urandom(4).hex()
        self._seq = itertools.count()
        self._requests = itertools.count()

    def new_trace_id(self) -> str:
        return f"{self.prefix}-{next(self._seq):08x}"

    def make_context(self, wire_trace=None) -> TraceContext:
        """The context for one incoming request.

        Adopts the client's id when the wire payload carries a valid
        one (end-to-end propagation), otherwise mints a fresh id. The
        *server* owns the sampling decision — a client may request
        sampling (``"sampled": true``) but cannot suppress it.
        """
        claimed = from_payload(wire_trace)
        trace_id = claimed.trace_id if claimed is not None else self.new_trace_id()
        n = next(self._requests)
        sampled = bool(self.sample_every) and n % self.sample_every == 0
        if claimed is not None and claimed.sampled:
            sampled = True
        return TraceContext(trace_id, sampled)
