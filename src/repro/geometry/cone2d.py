"""Recession cones of 2-D constraint conjunctions.

The recession cone of ``P = {x : n_i·x ≤ β_i}`` is
``C = {d : n_i·d ≤ 0 for all i}`` — the set of directions along which ``P``
is unbounded. The dual-representation machinery needs three questions
answered about ``C``:

* is ``C = {0}`` (``P`` bounded, assuming ``P`` non-empty)?
* does ``C`` contain a direction ``d`` with ``c·d > 0`` (the support of
  ``P`` in direction ``c`` is ``+∞``)?
* what are the extreme rays of ``C`` (used to report unbounded polyhedra
  and to clip them for display)?

All three are answered by candidate enumeration on the cone intersected
with the unit box — no iterative LP, exact up to a small tolerance.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

Vec2 = tuple[float, float]

#: Tolerance for cone feasibility tests (directions are unit-box scaled).
CONE_TOL = 1e-9


def cone_normals(ineqs: Iterable[tuple[Vec2, float]]) -> list[Vec2]:
    """Extract the non-trivial outward normals from ``n·x ≤ β`` inequalities."""
    normals = []
    for (nx, ny), _beta in ineqs:
        if nx != 0.0 or ny != 0.0:
            normals.append((nx, ny))
    return normals


def _feasible_direction(normals: Sequence[Vec2], d: Vec2, tol: float) -> bool:
    return all(nx * d[0] + ny * d[1] <= tol for nx, ny in normals)


def _boxed_max(normals: Sequence[Vec2], c: Vec2, tol: float = CONE_TOL) -> float:
    """``max c·d`` subject to ``n_i·d ≤ 0`` and ``|d|_∞ ≤ 1``.

    The boxed cone is a non-empty bounded polygon (it contains the origin),
    so the maximum is attained at a vertex: an intersection of two active
    boundaries chosen among the cone planes and the four box edges.
    """
    # Boundaries as (a, b, rhs) for a·x + b·y = rhs; cone planes have rhs 0.
    planes: list[tuple[float, float, float]] = [(nx, ny, 0.0) for nx, ny in normals]
    planes += [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0)]
    best = 0.0  # the origin is always feasible
    m = len(planes)
    for i in range(m):
        a1, b1, r1 = planes[i]
        for j in range(i + 1, m):
            a2, b2, r2 = planes[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-15:
                continue
            dx = (r1 * b2 - r2 * b1) / det
            dy = (a1 * r2 - a2 * r1) / det
            if abs(dx) > 1.0 + tol or abs(dy) > 1.0 + tol:
                continue
            if _feasible_direction(normals, (dx, dy), tol):
                best = max(best, c[0] * dx + c[1] * dy)
    return best


def unbounded_in(
    normals: Sequence[Vec2], c: Vec2, tol: float = CONE_TOL
) -> bool:
    """True when the cone contains a direction with ``c·d > 0``.

    Equivalently: the support of any non-empty polyhedron with this
    recession cone is ``+∞`` in direction ``c``.
    """
    if not normals:
        return c[0] != 0.0 or c[1] != 0.0
    scale = max(abs(c[0]), abs(c[1]), 1.0)
    return _boxed_max(normals, c, tol) > tol * scale


def is_pointed_at_origin(normals: Sequence[Vec2], tol: float = CONE_TOL) -> bool:
    """True when ``C = {0}`` — every direction is blocked.

    A polyhedron with a trivial recession cone is bounded.
    """
    if not normals:
        return False
    for c in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        if _boxed_max(normals, c, tol) > tol:
            return False
    return True


def pointed_many(
    normals_per_cone: Sequence[Sequence[Vec2]], tol: float = CONE_TOL
) -> np.ndarray:
    """Batched :func:`is_pointed_at_origin` over many cones at once.

    Returns a boolean array, one entry per cone, classifying each cone
    exactly as the scalar function would (see :func:`pointed_padded`).

    This is the build path's hot loop: one boundedness question per
    indexed tuple, each individually tiny but dominated by Python
    overhead when asked 10⁴ times in a row.
    """
    count = len(normals_per_cone)
    m_max = max((len(normals) for normals in normals_per_cone), default=0)
    nx = np.zeros((count, m_max))
    ny = np.zeros((count, m_max))
    for row, normals in enumerate(normals_per_cone):
        for col, (x, y) in enumerate(normals):
            nx[row, col] = x
            ny[row, col] = y
    return pointed_padded(nx, ny, tol)


def pointed_padded(
    nx: np.ndarray, ny: np.ndarray, tol: float = CONE_TOL
) -> np.ndarray:
    """:func:`is_pointed_at_origin` of each row of padded normal arrays.

    Row ``r`` holds one cone's normals, padded with ``(0, 0)``; a row
    without a non-zero normal is not pointed. The candidates, tolerances
    and comparisons are the scalar function's expressions evaluated over
    arrays, so the classifications agree bit-for-bit. Two kinds of the
    scalar's candidate pairs are skipped because they cannot change a
    result: two cone planes meet at the origin, whose value 0 the scalar
    maximum starts from, and a zero padding normal never pairs (its
    determinant with every plane is 0, under the ``1e-15`` cut). The
    box-edge pairs give the four corners ``(±1, ±1)``. A zero normal
    also satisfies ``0 <= tol`` in the feasibility test, so padding never
    changes a result.
    """
    count, m_max = nx.shape
    if count == 0 or m_max == 0:
        return np.zeros(count, dtype=bool)
    # Each cone plane (a1, b1, 0) against each box edge (a2, b2, r2), in
    # the scalar's pair order (cone plane first).
    a1 = nx[:, :, None]
    b1 = ny[:, :, None]
    r1 = np.zeros_like(a1)
    a2, b2, r2 = _BOX_PLANES
    det = a1 * b2 - a2 * b1
    usable = np.abs(det) >= 1e-15
    safe_det = np.where(usable, det, 1.0)
    dx = ((r1 * b2 - r2 * b1) / safe_det).reshape(count, -1)
    dy = ((a1 * r2 - a2 * r1) / safe_det).reshape(count, -1)
    candidate = (
        usable.reshape(count, -1)
        & (np.abs(dx) <= 1.0 + tol)
        & (np.abs(dy) <= 1.0 + tol)
    )
    dx = np.concatenate([dx, np.broadcast_to(_CORNERS[0], (count, 4))], axis=1)
    dy = np.concatenate([dy, np.broadcast_to(_CORNERS[1], (count, 4))], axis=1)
    candidate = np.concatenate([candidate, np.ones((count, 4), dtype=bool)],
                               axis=1)
    candidate &= np.all(
        nx[:, None, :] * dx[:, :, None] + ny[:, None, :] * dy[:, :, None]
        <= tol,
        axis=2,
    )
    # The scalar probes the four box directions (±1, 0), (0, ±1); each
    # value is ±dx or ±dy, so all four stay within tol iff the largest
    # |dx|, |dy| over the feasible candidates does (the origin, value 0,
    # is always feasible).
    reach = np.where(candidate, np.maximum(np.abs(dx), np.abs(dy)), 0.0)
    return (reach.max(axis=1) <= tol) & ((nx != 0.0) | (ny != 0.0)).any(axis=1)


#: The four box edges of :func:`_boxed_max` as ``(a, b, rhs)`` columns.
_BOX_PLANES = (
    np.array([1.0, -1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0, -1.0]),
    np.array([1.0, 1.0, 1.0, 1.0]),
)

#: Where two perpendicular box edges meet: the corners ``(±1, ±1)``.
_CORNERS = (np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))


def extreme_rays(normals: Sequence[Vec2], tol: float = CONE_TOL) -> list[Vec2]:
    """Unit extreme rays of the cone.

    Candidates are the rotations ``±rot90(n_i)`` of each normal: in 2-D any
    extreme ray lies on some boundary plane ``n_i·d = 0``. A full-plane cone
    (no constraints) has no extreme rays and is reported as ``[]``; callers
    should check :func:`is_pointed_at_origin`/emptiness of normals first.
    """
    rays: list[Vec2] = []
    for nx, ny in normals:
        norm = math.hypot(nx, ny)
        if norm == 0.0:
            continue
        for d in ((-ny / norm, nx / norm), (ny / norm, -nx / norm)):
            if not _feasible_direction(normals, d, tol):
                continue
            if any(
                abs(d[0] - r[0]) <= 1e-9 and abs(d[1] - r[1]) <= 1e-9 for r in rays
            ):
                continue
            rays.append(d)
    return rays
