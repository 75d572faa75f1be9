"""Convex polyhedra: the extensions of generalized tuples.

:class:`ConvexPolyhedron` is the geometric half of a generalized tuple. It
answers every question the indexing machinery asks — emptiness,
boundedness, support values (hence ``TOP``/``BOT``), vertices, rays,
bounding boxes, areas — caching aggressively because tuples are immutable.

Dimension 2 uses the self-contained exact engine
(``repro.geometry.support2d`` + ``repro.geometry.cone2d``); higher
dimensions delegate supports to LP (``repro.geometry.supportnd``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import EmptyExtensionError, GeometryError
from repro.geometry import support2d, supportnd
from repro.geometry.cone2d import (
    cone_normals,
    extreme_rays,
    is_pointed_at_origin,
    pointed_many,
)
from repro.geometry.hull import convex_hull_2d, polygon_area, polygon_centroid

if TYPE_CHECKING:  # pragma: no cover
    from repro.constraints.tuples import GeneralizedTuple

#: Polyhedra per batched warm-up pass. The padded candidate arrays are
#: polyhedra × plane pairs × planes, so fixed slices keep the warmers'
#: temporaries bounded however large the relation is.
WARM_CHUNK = 256


class ConvexPolyhedron:
    """The solution set of a generalized tuple, with cached geometry."""

    __slots__ = (
        "_atoms",
        "_contradictory",
        "_dim",
        "_ineqs2d",
        "_ineqsnd",
        "_empty",
        "_bounded",
        "_vertices",
        "_rays",
        "_support_cache",
    )

    def __init__(self, source: "GeneralizedTuple") -> None:
        # The atoms, not the tuple: the tuple caches its extension, so a
        # back-reference would make every tuple a reference cycle that
        # only the cyclic garbage collector frees — and bulk paths decode
        # and drop thousands of tuples per query.
        self._atoms = source.constraints
        self._contradictory = source.syntactically_false
        self._dim = source.dimension
        self._ineqs2d: list | None = None
        self._ineqsnd: list | None = None
        self._empty: bool | None = True if self._contradictory else None
        self._bounded: bool | None = None
        self._vertices: list[tuple[float, ...]] | None = None
        self._rays: list[tuple[float, float]] | None = None
        self._support_cache: dict[tuple[float, ...], float | None] = {}

    # ------------------------------------------------------------------
    # representation plumbing
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Ambient dimension d."""
        return self._dim

    def _as_ineqs2d(self):
        if self._ineqs2d is None:
            self._ineqs2d = support2d.ineqs_from_atoms(self._atoms)
        return self._ineqs2d

    def _as_ineqsnd(self):
        if self._ineqsnd is None:
            self._ineqsnd = supportnd.ineqs_from_atoms_nd(self._atoms)
        return self._ineqsnd

    # ------------------------------------------------------------------
    # emptiness / boundedness
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the tuple is unsatisfiable."""
        if self._empty is None:
            if self._dim == 2:
                self._empty = support2d.feasible_point_2d(self._as_ineqs2d()) is None
            else:
                self._empty = supportnd.feasible_point_nd(self._as_ineqsnd()) is None
        return self._empty

    @property
    def is_bounded(self) -> bool:
        """True when the (non-empty) extension is a bounded polytope.

        An empty polyhedron is reported as bounded.
        """
        if self._bounded is None:
            if self.is_empty:
                self._bounded = True
            elif self._dim == 2:
                normals = cone_normals(self._as_ineqs2d())
                self._bounded = is_pointed_at_origin(normals)
            else:
                self._bounded = all(
                    math.isfinite(v)
                    for v in (
                        s
                        for i in range(self._dim)
                        for s in (
                            self.support(_unit(self._dim, i)),
                            self.support(_unit(self._dim, i, -1.0)),
                        )
                    )
                )
        return self._bounded

    def feasible_point(self) -> tuple[float, ...] | None:
        """Any point of the extension, or ``None`` when empty."""
        if self._dim == 2:
            return support2d.feasible_point_2d(self._as_ineqs2d())
        return supportnd.feasible_point_nd(self._as_ineqsnd())

    # ------------------------------------------------------------------
    # support machinery (TOP/BOT live in repro.geometry.dual)
    # ------------------------------------------------------------------
    def support(self, direction: Sequence[float]) -> float | None:
        """``sup { direction·x : x ∈ P }``.

        ``None`` when ``P`` is empty, ``math.inf`` when unbounded in the
        given direction.
        """
        key = tuple(float(v) for v in direction)
        if len(key) != self._dim:
            raise GeometryError(
                f"direction of dimension {len(key)} against polyhedron of "
                f"dimension {self._dim}"
            )
        if key not in self._support_cache:
            if self._dim == 2:
                value = self._support_2d_fast(key)  # type: ignore[arg-type]
            else:
                value = supportnd.support_nd(self._as_ineqsnd(), key)
            self._support_cache[key] = value
        return self._support_cache[key]

    def _support_2d_fast(self, c: tuple[float, float]) -> float | None:
        """Support via cached vertices/rays (O(#vertices) per direction).

        Sound because a finite supremum of a linear functional over a
        polyhedron with at least one vertex is attained at a vertex, and
        unboundedness in direction ``c`` is witnessed by an extreme ray
        with ``c·r > 0``. Vertex-free shapes (half-planes, slabs) fall
        back to the full candidate-enumeration engine.
        """
        if self.is_empty:
            return None
        scale = max(abs(c[0]), abs(c[1]), 1.0)
        if not self.is_bounded:
            for rx, ry in self.rays():
                if c[0] * rx + c[1] * ry > 1e-9 * scale:
                    return math.inf
        verts = self.vertices()
        if not verts:
            return support2d.support_2d(self._as_ineqs2d(), c)
        return max(c[0] * vx + c[1] * vy for vx, vy in verts)

    # ------------------------------------------------------------------
    # explicit geometry (2-D exact, d-dim via qhull)
    # ------------------------------------------------------------------
    def vertices(self) -> list[tuple[float, ...]]:
        """Ordered vertices (CCW hull in 2-D; unordered for d > 2).

        For unbounded 2-D polyhedra this returns the finite vertices only
        (possibly an empty list for vertex-free regions such as
        half-planes); combine with :meth:`rays`.
        """
        if self._vertices is None:
            if self.is_empty:
                self._vertices = []
            elif self._dim == 2:
                ineqs = self._as_ineqs2d()
                tol = support2d.FEAS_TOL
                raw: list[tuple[float, float]] = []
                m = len(ineqs)
                for i in range(m):
                    (a1, b1), r1 = ineqs[i]
                    for j in range(i + 1, m):
                        (a2, b2), r2 = ineqs[j]
                        det = a1 * b2 - a2 * b1
                        scale = max(abs(a1), abs(b1), 1.0) * max(abs(a2), abs(b2), 1.0)
                        if abs(det) <= 1e-13 * scale:
                            continue
                        x = (r1 * b2 - r2 * b1) / det
                        y = (a1 * r2 - a2 * r1) / det
                        if support2d._feasible(ineqs, x, y, tol):
                            raw.append((x, y))
                deduped = _dedupe_points(raw)
                if len(deduped) >= 3:
                    self._vertices = [tuple(p) for p in convex_hull_2d(deduped)]
                else:
                    self._vertices = [tuple(p) for p in deduped]
            else:
                self._vertices = supportnd.vertices_nd(self._as_ineqsnd())
        return list(self._vertices)

    def rays(self) -> list[tuple[float, float]]:
        """Unit extreme rays of the recession cone (2-D only)."""
        if self._dim != 2:
            raise GeometryError("rays() is implemented for dimension 2")
        if self._rays is None:
            if self.is_empty or self.is_bounded:
                self._rays = []
            else:
                self._rays = extreme_rays(cone_normals(self._as_ineqs2d()))
        return list(self._rays)

    def area(self) -> float:
        """Area of a bounded 2-D extension."""
        if self._dim != 2:
            raise GeometryError("area() is implemented for dimension 2")
        if self.is_empty:
            return 0.0
        if not self.is_bounded:
            return math.inf
        return polygon_area(self.vertices())  # type: ignore[arg-type]

    def centroid(self) -> tuple[float, float]:
        """Centroid (weight centre) of a bounded 2-D extension."""
        if self._dim != 2:
            raise GeometryError("centroid() is implemented for dimension 2")
        if self.is_empty:
            raise EmptyExtensionError("centroid of an empty polyhedron")
        if not self.is_bounded:
            raise GeometryError("centroid of an unbounded polyhedron")
        return polygon_centroid(self.vertices())  # type: ignore[arg-type]

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Axis-aligned bounding box ``(lows, highs)`` of a bounded extension.

        Raises :class:`GeometryError` for empty or unbounded polyhedra —
        exactly the limitation of MBR-based indexes the paper criticises.
        """
        if self.is_empty:
            raise EmptyExtensionError("bounding box of an empty polyhedron")
        lows = []
        highs = []
        for i in range(self._dim):
            hi = self.support(_unit(self._dim, i))
            lo = self.support(_unit(self._dim, i, -1.0))
            if hi is None or lo is None or not math.isfinite(hi) or not math.isfinite(lo):
                raise GeometryError(
                    "bounding box requires a bounded polyhedron "
                    "(unbounded objects cannot be MBR-approximated)"
                )
            highs.append(hi)
            lows.append(-lo)
        return tuple(lows), tuple(highs)

    def contains_point(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        """Point membership (checked against the symbolic atoms)."""
        if self._contradictory:
            return False
        return all(atom.satisfied_by(point, tol) for atom in self._atoms)

    def __repr__(self) -> str:
        state = "empty" if self.is_empty else ("bounded" if self.is_bounded else "unbounded")
        return f"<ConvexPolyhedron dim={self._dim} {state} atoms={len(self._atoms)}>"


def warm_batch(polys: Sequence["ConvexPolyhedron"]) -> None:
    """Batch-settle emptiness, vertices and boundedness of many polyhedra.

    The scalar properties answer these one polyhedron at a time in pure
    Python; bulk paths (the vectorized build, every
    :class:`~repro.geometry.vectorized.DualSurface`, refinement's fetched
    candidates, the batch executor's boundary fetch) ask them of
    hundreds of freshly decoded tuples at once, and that is their
    dominant cost otherwise. Emptiness comes
    first, from the same padded vertex enumeration that fills the vertex
    cache (see :func:`_warm_vertex_slice`); boundedness follows, from
    one batched cone pass over the non-empty ones
    (:func:`repro.geometry.cone2d.pointed_many`, bit-identical to the
    scalar check). Every cached value equals what the scalar property
    would have computed. Polyhedra that already know the answers, or
    are not 2-D, are left to the scalar properties. Runs over slices of
    :data:`WARM_CHUNK` polyhedra.
    """
    flat = [p for p in polys if p._dim == 2]
    todo = [p for p in flat if p._vertices is None and not p._empty]
    for lo in range(0, len(todo), WARM_CHUNK):
        _warm_vertex_slice(todo[lo : lo + WARM_CHUNK])
    todo = []
    for poly in flat:
        if poly.is_empty:
            # The scalar properties' conventions for an empty extension.
            poly._vertices = []
            poly._bounded = True
        elif poly._bounded is None:
            todo.append(poly)
    for lo in range(0, len(todo), WARM_CHUNK):
        chunk = todo[lo : lo + WARM_CHUNK]
        mask = pointed_many([cone_normals(p._as_ineqs2d()) for p in chunk])
        for poly, flag in zip(chunk, mask):
            poly._bounded = bool(flag)


def _warm_vertex_slice(todo: Sequence["ConvexPolyhedron"]) -> None:
    """Fill ``_empty`` and ``_vertices`` for one slice of 2-D polyhedra.

    Runs the same candidate enumeration as :meth:`ConvexPolyhedron.vertices`
    — pairwise constraint-line intersections, the same determinant and
    feasibility tolerances in the same evaluation order — over padded
    arrays, then hands each polyhedron's surviving candidate list (in
    scalar enumeration order) to the scalar dedupe + hull, so the cached
    vertices are exactly what the property would have computed. Padding
    rows are ``(0, 0, 0)``: their determinant with any line is 0 (never
    a candidate pair) and their feasibility slack is 0 (never rejects a
    point), so slicing (each slice padded to its own widest member)
    changes no result.

    The enumeration is also :func:`support2d._candidate_points`' vertex
    step (same ``FEAS_TOL``, determinant cut and slack formula; zero-normal
    rows never pair and, unless they encode a contradiction, never
    reject), so a surviving vertex is a point
    :func:`support2d.feasible_point_2d` would return: the polyhedron is
    non-empty. Only vertex-free systems and those holding an encoded
    contradiction (``0 <= beta < 0``) ask the scalar search.
    """
    ineqs_list = [p._as_ineqs2d() for p in todo]
    count = len(todo)
    m_max = max(2, max(len(ineqs) for ineqs in ineqs_list))
    nx = np.zeros((count, m_max))
    ny = np.zeros((count, m_max))
    beta = np.zeros((count, m_max))
    for row, ineqs in enumerate(ineqs_list):
        for col, ((a, b), rhs) in enumerate(ineqs):
            nx[row, col] = a
            ny[row, col] = b
            beta[row, col] = rhs
    i, j = np.triu_indices(m_max, k=1)
    det = nx[:, i] * ny[:, j] - nx[:, j] * ny[:, i]
    plane_scale = np.maximum(np.maximum(np.abs(nx), np.abs(ny)), 1.0)
    usable = np.abs(det) > 1e-13 * (plane_scale[:, i] * plane_scale[:, j])
    safe_det = np.where(usable, det, 1.0)
    x = (beta[:, i] * ny[:, j] - beta[:, j] * ny[:, i]) / safe_det
    y = (nx[:, i] * beta[:, j] - nx[:, j] * beta[:, i]) / safe_det
    tol = support2d.FEAS_TOL
    point_scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
    slack = (
        nx[:, None, :] * x[:, :, None]
        + ny[:, None, :] * y[:, :, None]
        - beta[:, None, :]
    )
    feasible = np.all(
        slack <= (tol * plane_scale)[:, None, :] * point_scale[:, :, None],
        axis=2,
    )
    good = usable & feasible
    contradiction = np.any((nx == 0.0) & (ny == 0.0) & (beta < 0.0), axis=1)
    for row, poly in enumerate(todo):
        raw = [
            (float(x[row, k]), float(y[row, k]))
            for k in np.nonzero(good[row])[0]
        ]
        if not raw or contradiction[row]:
            # Vertex-free or empty: the scalar search decides emptiness,
            # and either way the scalar enumeration yields no vertex.
            if poly._empty is None:
                poly._empty = support2d.feasible_point_2d(ineqs_list[row]) is None
            poly._vertices = []
            continue
        poly._empty = False
        deduped = _dedupe_points(raw)
        if len(deduped) >= 3:
            poly._vertices = [tuple(p) for p in convex_hull_2d(deduped)]
        else:
            poly._vertices = [tuple(p) for p in deduped]


def _unit(dim: int, index: int, sign: float = 1.0) -> tuple[float, ...]:
    return tuple(sign if i == index else 0.0 for i in range(dim))


def _dedupe_points(
    points: Sequence[tuple[float, float]], tol: float = 1e-7
) -> list[tuple[float, float]]:
    result: list[tuple[float, float]] = []
    for p in points:
        if not any(
            abs(p[0] - q[0]) <= tol * max(1.0, abs(p[0]))
            and abs(p[1] - q[1]) <= tol * max(1.0, abs(p[1]))
            for q in result
        ):
            result.append(p)
    return result
