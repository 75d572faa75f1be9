"""Technique T1: approximate a query by two app-queries (Section 4.1).

A query half-plane whose slope is not in ``S`` is covered by the union of
two half-planes with neighbouring slopes from ``S``, both passing through
a common pivot point on the query line. Operators follow Table 1; query
types follow Section 4.1:

* an EXIST query becomes two EXIST app-queries;
* an ALL query becomes one ALL app-query (on ``q1``) and one EXIST
  app-query (on ``q2``) — two ALL app-queries would be incorrect
  (Figure 4).

Every tuple retrieved by an app-query is only a *candidate* for the
original query: the caller refines against the exact predicate. Tuples
found by both app-queries are the technique's *duplicates*.
"""

from __future__ import annotations

import numpy as np

from repro.core.dual_index import DualIndex
from repro.core.query import ALL, EXIST, AppQuery, HalfPlaneQuery
from repro.core.slope_set import SlopeCase
from repro.errors import QueryError
from repro.obs import trace as obs


def build_app_queries(
    index: DualIndex, query: HalfPlaneQuery, pivot_x: float = 0.0
) -> tuple[AppQuery, AppQuery]:
    """The two app-queries covering ``query`` (Table 1 + Section 4.1).

    ``pivot_x`` selects the pivot point ``P = (pivot_x, a·pivot_x + b)``
    on the query line; the paper leaves the optimal choice open, so it is
    a tunable (ablation A5).
    """
    a = query.slope_2d
    b = query.intercept
    info = index.slopes.classify(a)
    if info.case is SlopeCase.EXACT:
        raise QueryError("T1 called for a slope that is in S")
    slopes = index.slopes

    def intercept_for(slope_index: int) -> float:
        # Line through P = (pivot_x, a*pivot_x + b) with slope s_i.
        return b + (a - slopes[slope_index]) * pivot_x

    theta1 = slopes.app_theta(query.theta, info.flip1)
    theta2 = slopes.app_theta(query.theta, info.flip2)
    if query.query_type == EXIST:
        type1 = type2 = EXIST
    else:
        # ALL → one ALL app-query plus one EXIST app-query: any tuple
        # contained in q ⊆ q1 ∪ q2 either meets q1 or lies inside q2.
        type1, type2 = EXIST, ALL
    q1 = AppQuery(type1, info.index1, intercept_for(info.index1), theta1)
    q2 = AppQuery(type2, info.index2, intercept_for(info.index2), theta2)
    return q1, q2


def run_app_query(index: DualIndex, app: AppQuery) -> np.ndarray:
    """Execute one app-query with the restricted technique (Section 3).

    Returns the candidate RIDs (int64, distinct): one merged sweep from
    the margin-widened intercept to the end of the leaf chain. No early
    accepts: satisfying the app-query says nothing final about the
    original query.
    """
    trees, upward = index.trees_for(app.query_type, app.theta)
    tree = trees[app.slope_index]
    margin = index.margin(app.intercept)
    with obs.span("sweep.app", tree=tree.name, type=app.query_type):
        if upward:
            sweep = tree.sweep_up_multi([app.intercept - margin])
        else:
            sweep = tree.sweep_down_multi([app.intercept + margin])
    return sweep.rids[sweep.offsets[0]:]


def t1_candidates(
    index: DualIndex, query: HalfPlaneQuery, pivot_x: float = 0.0
) -> tuple[np.ndarray, int]:
    """Candidate RIDs (sorted int64) for ``query`` plus the duplicate
    count."""
    q1, q2 = build_app_queries(index, query, pivot_x)
    rids1 = run_app_query(index, q1)
    rids2 = run_app_query(index, q2)
    duplicates = int(np.intersect1d(rids1, rids2, assume_unique=True).size)
    obs.incr("t1.duplicates", duplicates)
    return np.union1d(rids1, rids2), duplicates
