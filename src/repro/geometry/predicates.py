"""Exact ALL/EXIST predicates — the ground-truth oracle.

Proposition 2.2 of the paper reduces half-plane containment and
intersection to comparisons against ``TOP^P`` / ``BOT^P``::

    ALL(q(>=), t)   iff  b_d <= BOT^P(s)
    ALL(q(<=), t)   iff  b_d >= TOP^P(s)
    EXIST(q(>=), t) iff  b_d <= TOP^P(s)
    EXIST(q(<=), t) iff  b_d >= BOT^P(s)

These predicates serve three roles:

* the reference oracle against which every index answer is validated;
* the *refinement step* of the approximation techniques (false-hit
  filtering);
* an independent brute-force cross-check (:func:`exist_by_conjunction`)
  used by the property tests.

Empty extensions follow set semantics: EXIST is false, ALL is vacuously
true. Index structures reject empty tuples at insert time, so the
vacuous case only matters for the standalone oracle.

:func:`halfplane_rows` is the columnar form of the two predicates for
many 2-D tuples at once: the refinement step's kernel, which both
predicates run when handed a batch of rows instead of a polyhedron. It
decides a tuple only where its decision provably equals the scalar
predicate's and leaves every other tuple to the scalar path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.constraints.linear import LinearConstraint
from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import QueryError
from repro.geometry import dual
from repro.geometry.cone2d import pointed_padded
from repro.geometry.hull import HULL_EPS
from repro.geometry.polyhedron import (
    DEDUPE_TOL,
    ConvexPolyhedron,
    vertex_candidates,
)

#: Absolute tolerance for intercept comparisons in the oracle.
ORACLE_TOL = 1e-7


def _check_theta(theta: Theta) -> None:
    if theta not in (Theta.GE, Theta.LE):
        raise QueryError(f"half-plane queries use >= or <=, got {theta}")


def exist_halfplane(
    poly: ConvexPolyhedron,
    slope,
    intercept: float,
    theta: Theta,
    tol: float = ORACLE_TOL,
):
    """EXIST(q(θ), t): does the extension meet ``x_d θ s·x' + b``?

    ``poly`` may instead be a batch of 2-D tuples in row form
    (:class:`~repro.storage.serialize.HalfPlaneRows`); the result is then
    :func:`halfplane_rows`' ``(holds, decided)`` pair.
    """
    if not isinstance(poly, ConvexPolyhedron):
        return halfplane_rows(poly, "EXIST", slope, intercept, theta, tol)
    _check_theta(theta)
    if poly.is_empty:
        return False
    if theta is Theta.GE:
        top_value = dual.top(poly, slope)
        assert top_value is not None
        return intercept <= top_value + tol
    bot_value = dual.bot(poly, slope)
    assert bot_value is not None
    return intercept >= bot_value - tol


def all_halfplane(
    poly: ConvexPolyhedron,
    slope,
    intercept: float,
    theta: Theta,
    tol: float = ORACLE_TOL,
):
    """ALL(q(θ), t): is the extension contained in ``x_d θ s·x' + b``?

    Takes a batch of 2-D rows as :func:`exist_halfplane` does.
    """
    if not isinstance(poly, ConvexPolyhedron):
        return halfplane_rows(poly, "ALL", slope, intercept, theta, tol)
    _check_theta(theta)
    if poly.is_empty:
        return True  # vacuous containment
    if theta is Theta.GE:
        bot_value = dual.bot(poly, slope)
        assert bot_value is not None
        if bot_value == -math.inf:
            return False
        return intercept <= bot_value + tol
    top_value = dual.top(poly, slope)
    assert top_value is not None
    if top_value == math.inf:
        return False
    return intercept >= top_value - tol


#: Distinct candidate vertices per tuple that :func:`halfplane_rows`
#: checks for degeneracy; a tuple with more goes to the scalar path.
MAX_ROW_POINTS = 12


def halfplane_rows(
    rows,
    query_type: str,
    slope: float,
    intercept: float,
    theta: Theta,
    tol: float = ORACLE_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """ALL/EXIST of many 2-D tuples in one pass: ``(holds, decided)``.

    Row ``r`` of the padded arrays ``rows.nx``/``rows.ny``/``rows.beta``
    is one tuple's system ``nx·x + ny·y <= beta`` (padding ``(0, 0, 0)``,
    as :func:`~repro.storage.serialize.decode_halfplanes_2d` builds it).
    By Proposition 2.2 each predicate compares the intercept with
    ``TOP(s)`` or ``BOT(s)``, and for a bounded tuple with a vertex that
    value is the maximum (minimum) of the vertices' dual lines
    ``v_y − s·v_x``. The pass enumerates candidate vertices with the
    scalar engine's padded code
    (:func:`~repro.geometry.polyhedron.vertex_candidates`) and takes the
    maximum over every feasible one.

    ``decided[r]`` is True only when ``holds[r]`` provably equals the
    scalar predicate on the same tuple. That needs:

    * a vertex, and a pointed recession cone
      (:func:`~repro.geometry.cone2d.pointed_padded`, bit-identical to
      the scalar boundedness test): the scalar support is then a max
      over its cached vertices;
    * no three distinct candidate points within twice the hull's
      collinearity cut (at most :data:`MAX_ROW_POINTS` of them): the
      scalar hull then keeps every extreme point its dedupe keeps, so
      its max differs from the max over all candidates only by the
      points the dedupe merged;
    * a margin ``|edge − intercept|`` above ``δ = 2 · DEDUPE_TOL ·
      (|s|·max(1, X) + max(1, Y))``, with ``X``/``Y`` the largest
      candidate coordinates. A merged point lies within ``DEDUPE_TOL``
      (relative, per coordinate) of a kept one, so merging moves the
      max by at most half of ``δ``; the other half covers rounding,
      which is below 1e-15 relative.

    Every other row (unbounded, vertex-free, degenerate or near the
    boundary) is left to the scalar predicates; so is an all-padding
    row, which has no vertex.
    """
    _check_theta(theta)
    s = float(slope)
    x, y, good = vertex_candidates(rows.nx, rows.ny, rows.beta)
    decided = good.any(axis=1) & pointed_padded(rows.nx, rows.ny)
    decided &= ~_degenerate_hull(x, y, good)
    # TOP(s) for EXIST(>=) and ALL(<=), BOT(s) for the other two.
    use_top = (query_type == "EXIST") == (theta is Theta.GE)
    if use_top:
        value = (-s) * x + y
    else:
        value = s * x - y
    best = np.max(np.where(good, value, -np.inf), axis=1)
    surface = best if use_top else -best
    edge = surface + tol if theta is Theta.GE else surface - tol
    holds = intercept <= edge if theta is Theta.GE else intercept >= edge
    reach_x = np.max(np.where(good, np.abs(x), 1.0), axis=1, initial=1.0)
    reach_y = np.max(np.where(good, np.abs(y), 1.0), axis=1, initial=1.0)
    delta = 2.0 * DEDUPE_TOL * (abs(s) * reach_x + reach_y)
    with np.errstate(invalid="ignore"):
        decided &= np.abs(edge - intercept) > delta
    return holds, decided


def _degenerate_hull(x: np.ndarray, y: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Rows whose scalar hull might drop an extreme candidate point.

    ``convex_hull_2d`` pops a point when a turn's cross product is at
    most ``HULL_EPS · scale²``. If every triple of distinct points turns
    by more than twice that (the factor absorbs the rounding of a
    different evaluation order), the hull's pops are the exact ones and
    it keeps every extreme point. Rows with more than
    :data:`MAX_ROW_POINTS` candidates are flagged too.
    """
    count = good.sum(axis=1)
    width = int(min(count.max(initial=0), MAX_ROW_POINTS))
    flagged = count > MAX_ROW_POINTS
    if width < 3:
        return flagged
    order = np.argsort(~good, axis=1, kind="stable")[:, :width]
    px = np.take_along_axis(x, order, axis=1)
    py = np.take_along_axis(y, order, axis=1)
    live = np.take_along_axis(good, order, axis=1)
    # An exact repeat of an earlier point is the same vertex.
    same = (px[:, :, None] == px[:, None, :]) & (py[:, :, None] == py[:, None, :])
    earlier = np.tril(np.ones((width, width), dtype=bool), k=-1)
    live &= ~np.any(same & earlier & live[:, None, :], axis=2)
    scale = np.maximum(
        np.max(np.where(live, np.abs(px), 1.0), axis=1),
        np.max(np.where(live, np.abs(py), 1.0), axis=1),
    )
    i, j, k = np.array(list(itertools.combinations(range(width), 3))).T
    cross = (px[:, j] - px[:, i]) * (py[:, k] - py[:, i]) - (
        py[:, j] - py[:, i]
    ) * (px[:, k] - px[:, i])
    near = np.abs(cross) <= (2.0 * HULL_EPS * scale * scale)[:, None]
    flagged |= np.any(near & live[:, i] & live[:, j] & live[:, k], axis=1)
    return flagged


def halfplane_constraint(slope, intercept: float, theta: Theta, dimension: int) -> LinearConstraint:
    """The query half-plane ``x_d θ s·x' + b`` as a linear constraint.

    Stored as ``-s·x' + x_d - b θ 0``.
    """
    _check_theta(theta)
    s = dual.slope_vector(slope, dimension)
    coeffs = tuple(-v for v in s) + (1.0,)
    return LinearConstraint(coeffs, -float(intercept), theta)


def exist_by_conjunction(
    t: GeneralizedTuple, slope, intercept: float, theta: Theta
) -> bool:
    """Brute-force EXIST: satisfiability of ``t ∧ q``.

    Independent of the TOP/BOT reduction — used to cross-validate it.
    """
    q = halfplane_constraint(slope, intercept, theta, t.dimension)
    return t.conjoin(GeneralizedTuple([q])).is_satisfiable()


def all_by_sampling(
    t: GeneralizedTuple,
    slope,
    intercept: float,
    theta: Theta,
    tol: float = ORACLE_TOL,
) -> bool:
    """Brute-force necessary test for ALL: every vertex satisfies ``q``.

    For *bounded* polyhedra vertex containment is also sufficient, making
    this an exact independent check on the paper's workloads; unbounded
    polyhedra additionally require every recession ray to point into the
    closed half-plane.
    """
    poly = t.extension()
    if poly.is_empty:
        return True
    q = halfplane_constraint(slope, intercept, theta, t.dimension)
    if not all(q.satisfied_by(v, tol) for v in poly.vertices()):
        return False
    if poly.dimension == 2 and not poly.is_bounded:
        s = dual.slope_vector(slope, 2)[0]
        for rx, ry in poly.rays():
            drift = ry - s * rx
            if theta is Theta.GE and drift < -tol:
                return False
            if theta is Theta.LE and drift > tol:
                return False
        # A vertex-free region (e.g. a half-plane) needs a witness point too.
        if not poly.vertices():
            witness = poly.feasible_point()
            assert witness is not None
            if not q.satisfied_by(witness, tol):
                return False
    return True


def evaluate_relation(
    relation,
    query_type: str,
    slope,
    intercept: float,
    theta: Theta,
    tol: float = ORACLE_TOL,
) -> set[int]:
    """Oracle answer set over a :class:`GeneralizedRelation`.

    ``query_type`` is ``"ALL"`` or ``"EXIST"``; returns the satisfying
    tuple ids. This is what every index result is compared against.
    """
    if query_type not in ("ALL", "EXIST"):
        raise QueryError(f"query type must be ALL or EXIST, got {query_type!r}")
    predicate = all_halfplane if query_type == "ALL" else exist_halfplane
    answer: set[int] = set()
    for tuple_id, t in relation:
        if predicate(t.extension(), slope, intercept, theta, tol):
            answer.add(tuple_id)
    return answer
