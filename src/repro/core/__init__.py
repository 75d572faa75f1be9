"""The paper's contribution: dual-representation indexing of constraint
databases — the restricted index (Section 3), the T1/T2 approximation
techniques (Section 4), and the d-dimensional extension (Section 4.4).
"""

from repro.core.approx_t1 import build_app_queries, run_app_query, t1_candidates
from repro.core.ddim import DDimDualIndex, DDimPlanner, SlopePointSet
from repro.core.approx_t2 import T2Trace, t2_candidates
from repro.core.dual_index import DualIndex, EntryKeys, IndexSpace
from repro.core.planner import DualIndexPlanner
from repro.core.query import (
    ALL,
    EXIST,
    AnswerSet,
    AppQuery,
    HalfPlaneQuery,
    QueryResult,
)
from repro.core.slope_set import NeighbourInfo, SlopeCase, SlopeSet

__all__ = [
    "DualIndex",
    "DualIndexPlanner",
    "SlopeSet",
    "SlopeCase",
    "NeighbourInfo",
    "HalfPlaneQuery",
    "AppQuery",
    "QueryResult",
    "AnswerSet",
    "ALL",
    "EXIST",
    "EntryKeys",
    "IndexSpace",
    "build_app_queries",
    "run_app_query",
    "t1_candidates",
    "t2_candidates",
    "T2Trace",
    "DDimDualIndex",
    "DDimPlanner",
    "SlopePointSet",
]
