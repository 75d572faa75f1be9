"""Query-level observability: metrics registry, traces, profiling hooks.

The paper's whole evaluation is a page-access argument, so the library
carries a first-class measurement layer:

* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms with labeled series, exportable as JSON (the CI
  perf-smoke gate consumes this);
* :mod:`repro.obs.trace` — per-query span trees (``plan`` → ``descend``
  → ``sweep`` → ``fetch`` → ``verify``) attributing logical/physical
  I/O, buffer hits, comparison counts and wall time to each phase;
* :mod:`repro.obs.export` — Chrome trace-event JSON export of span
  trees (openable in Perfetto);
* :mod:`repro.obs.explain` — the ``repro explain`` report: exclusive
  per-phase attribution with a sums-to-inclusive-total invariant;
* :mod:`repro.obs.tracer` — request-scoped trace contexts for the serve
  path: wire-propagated trace ids, sampling decisions, and the module
  hook downstream layers read to tag their spans;
* :mod:`repro.obs.slowlog` — the bounded worst-N slow-query log whose
  entries carry enough state (query atoms, engine identity, answer
  digest, span tree) to replay bit-identically offline.

Fleet aggregation: shards record into private registries and ship
:class:`RegistrySnapshot` objects back; the global registry absorbs
them as ``shard=i`` labeled series (see :meth:`MetricsRegistry.absorb`).

Hot paths are instrumented through the module-level hooks below
(:func:`span`, :func:`incr`): when no trace is active they reduce to one
global load and a ``None`` check, record nothing, and cannot change
query results.

Besides the ``exec_*`` batch counters, the differential fuzzer
(:mod:`repro.verify`) reports through the registry as ``fuzz_*``:
``fuzz_rounds``, ``fuzz_queries``, ``fuzz_disagreements``,
``fuzz_waivers`` (LP-vs-geometric boundary flips that were waived),
``fuzz_faults_injected`` and ``fuzz_repros`` (minimised repro files
written).

Example::

    from repro import obs

    trace = obs.QueryTrace(pager=planner.index.pager)
    with obs.tracing(trace):
        planner.exist(0.5, 2.0)
    print(trace.render())
    print(trace.export_json())
"""

from repro.obs.explain import (
    ExplainInvariantError,
    ExplainReport,
    explain,
    render_explain,
    traced_answer,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySnapshot,
    get_registry,
)
from repro.obs.slopelog import (
    SlopeLog,
    SlopeLogSnapshot,
    logging_slopes,
)
from repro.obs.slowlog import (
    SlowLogEntry,
    SlowQueryLog,
    answer_digest,
    slope_set_hash,
)
from repro.obs.tracer import (
    RequestTracer,
    TraceContext,
    request_context,
)
from repro.obs.trace import (
    QueryTrace,
    Span,
    current,
    incr,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "ExplainInvariantError",
    "ExplainReport",
    "explain",
    "render_explain",
    "traced_answer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySnapshot",
    "get_registry",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "SlopeLog",
    "SlopeLogSnapshot",
    "logging_slopes",
    "SlowLogEntry",
    "SlowQueryLog",
    "answer_digest",
    "slope_set_hash",
    "RequestTracer",
    "TraceContext",
    "request_context",
    "QueryTrace",
    "Span",
    "current",
    "incr",
    "span",
    "tracing",
]
