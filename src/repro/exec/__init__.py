"""Batch query execution over the dual index.

One batch of half-plane selections, three sources of shared work:

* merged multi-key B+-tree sweeps for restricted-slope groups (one
  descent + one sweep per ``(slope, type, θ)`` group);
* a vectorized numpy pass over the dual representation for every other
  slope (one pass per slope, not per query);
* an LRU result cache keyed on the query identity, invalidated on every
  index version change.

Entry points: :class:`BatchExecutor` (or the convenience wrapper
:meth:`repro.core.planner.DualIndexPlanner.query_batch`) and the CLI's
``repro batch`` subcommand. :func:`merge_partials` assembles a
:class:`BatchResult` from one executor's or several shards' partials.
"""

from repro.exec.cache import QueryResultCache, cache_key
from repro.exec.executor import BatchExecutor, BatchResult, merge_partials
from repro.exec.grouping import ExactGroup, VectorGroup, group_queries

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "merge_partials",
    "QueryResultCache",
    "cache_key",
    "ExactGroup",
    "VectorGroup",
    "group_queries",
]
