"""Vectorized dual evaluation: TOP/BOT of *many* tuples at one slope.

The scalar engine answers ``TOP^P(s)`` one polyhedron at a time through
:meth:`ConvexPolyhedron.support`. A batch of queries that share a slope
``s`` needs the surface value of *every* tuple at that one ``s`` — the
regime where the dual representation shines, because each tuple's
contribution is a maximum of linear functions of ``s`` (one dual line
per vertex):

    TOP^P(s) = max over vertices v of (v_y - s·v_x)     [+inf via rays]
    BOT^P(s) = min over vertices v of (v_y - s·v_x)     [-inf via rays]

:class:`DualSurface` flattens all vertices (and extreme rays) of a
tuple collection into numpy arrays once, then evaluates every tuple's
TOP or BOT at a slope in one segmented-reduction pass — one pass over
the dual representation per slope, not one support call per (tuple,
query) pair.

Exactness: the arithmetic mirrors the scalar support path operation for
operation (same products, same sums, same ray threshold), so the
vectorized values are bit-identical to ``dual.top``/``dual.bot`` for
every tuple with at least one vertex; vertex-free tuples (half-planes,
slabs) fall back to the scalar engine. Answer sets produced by
:meth:`DualSurface.answer` therefore equal the exact oracle's
(:func:`repro.geometry.predicates.evaluate_relation`).

Two callers build surfaces:

* :func:`repro.core.dual_index.compute_keys_batch` — the whole relation,
  once per index build, evaluated at every probe slope of S;
* :meth:`repro.core.dual_index.DualIndex.surface` — the whole index
  contents, built from a heap scan on the first ``vector`` query and
  then patched in place by every insert and delete
  (:meth:`DualSurface.append` / :meth:`DualSurface.delete`): a tuple's
  ``TOP^P``/``BOT^P`` depend on its own vertices only, so a write
  touches that tuple's rows and nothing else.

Refinement (:func:`repro.core.planner.refine_candidates`) builds none:
it decides the fetched records with the columnar kernel
:func:`repro.geometry.predicates.halfplane_rows`, a max over each
record's candidate vertices, and runs the scalar predicates only on the
records the kernel leaves undecided.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import GeometryError
from repro.geometry import dual
from repro.geometry.polyhedron import warm_batch
from repro.geometry.predicates import ORACLE_TOL

#: Ray threshold of the scalar fast path (``_support_2d_fast``).
_RAY_TOL = 1e-9

#: Memoised slope columns kept per side (TOP / BOT) before FIFO
#: eviction. Bounded so a long-running server seeing distinct slopes
#: does not grow without limit; at least the largest reused slope pool a
#: workload cycles through (256 per side), so no column it reuses is
#: recomputed. Eviction only costs a re-evaluation, never a different
#: value.
SLOPE_CACHE_CAPACITY = 1024


class DualSurface:
    """The dual representation of a tuple collection as flat numpy arrays.

    Build once per relation snapshot (one pass over the tuples), keep it
    current with :meth:`append` / :meth:`delete`, then evaluate
    :meth:`top_at` / :meth:`bot_at` per slope — each evaluation is a
    handful of vectorized numpy operations over all tuples at once.
    Per-slope results are memoised until the next update, so a batch of
    queries sharing a slope pays for exactly one evaluation pass (up to
    :data:`SLOPE_CACHE_CAPACITY` slopes per side, oldest evicted first).

    Example::

        >>> from repro import parse_tuple
        >>> from repro.geometry.vectorized import DualSurface
        >>> items = [(0, parse_tuple("y >= x and y <= 4 and x >= 0"))]
        >>> surface = DualSurface.from_items(items)
        >>> float(surface.top_at(0.0)[0])   # TOP at slope 0 = max y
        4.0
    """

    def __init__(
        self,
        tids: list[int],
        tuples: list[GeneralizedTuple],
    ) -> None:
        self.tids = np.asarray(tids, dtype=np.int64)
        # One batched emptiness + vertex enumeration and one batched
        # cone pass instead of one per tuple — the dominant cost of
        # building the surface otherwise.
        warm_batch([t.extension() for t in tuples])
        self._fallback: list[tuple[int, GeneralizedTuple]] = []
        vx: list[float] = []
        vy: list[float] = []
        starts: list[int] = [0]
        ray_x: list[float] = []
        ray_y: list[float] = []
        ray_owner: list[int] = []
        for row, t in enumerate(tuples):
            poly = t.extension()
            if poly.is_empty:
                raise GeometryError(
                    "DualSurface indexes satisfiable tuples only"
                )
            verts = poly.vertices()
            if not verts:
                # Vertex-free shapes go through the scalar engine; the
                # placeholder row keeps the segmented reduction aligned.
                self._fallback.append((row, t))
                vx.append(0.0)
                vy.append(0.0)
            else:
                for x, y in verts:
                    vx.append(x)
                    vy.append(y)
            starts.append(len(vx))
            if not poly.is_bounded:
                for rx, ry in poly.rays():
                    ray_x.append(rx)
                    ray_y.append(ry)
                    ray_owner.append(row)
        self._vx = np.asarray(vx, dtype=np.float64)
        self._vy = np.asarray(vy, dtype=np.float64)
        self._starts = np.asarray(starts[:-1], dtype=np.intp)
        self._ray_x = np.asarray(ray_x, dtype=np.float64)
        self._ray_y = np.asarray(ray_y, dtype=np.float64)
        self._ray_owner = np.asarray(ray_owner, dtype=np.intp)
        self._top_cache: dict[float, np.ndarray] = {}
        self._bot_cache: dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_items(
        cls, items: Iterable[tuple[int, GeneralizedTuple]]
    ) -> "DualSurface":
        """Build from ``(tuple_id, tuple)`` pairs (e.g. a heap scan)."""
        tids: list[int] = []
        tuples: list[GeneralizedTuple] = []
        for tid, t in items:
            tids.append(tid)
            tuples.append(t)
        return cls(tids, tuples)

    def __len__(self) -> int:
        return int(self.tids.size)

    # ------------------------------------------------------------------
    # in-place updates
    # ------------------------------------------------------------------
    def append(self, piece: "DualSurface") -> None:
        """Append every row of another surface (whose tids are new).

        Every value read back by tid equals a :meth:`from_items`
        rebuild's: a row's value depends on its own rows only.
        """
        row, base = len(self), self._vx.size
        self.tids = np.append(self.tids, piece.tids)
        self._vx = np.append(self._vx, piece._vx)
        self._vy = np.append(self._vy, piece._vy)
        self._starts = np.append(self._starts, piece._starts + base)
        self._ray_x = np.append(self._ray_x, piece._ray_x)
        self._ray_y = np.append(self._ray_y, piece._ray_y)
        self._ray_owner = np.append(self._ray_owner, piece._ray_owner + row)
        self._fallback.extend((r + row, f) for r, f in piece._fallback)
        self._forget_slopes()

    def delete(self, tid: int) -> None:
        """Drop one tuple's rows and re-base the rows after it."""
        hits = np.flatnonzero(self.tids == tid)
        if not hits.size:
            raise GeometryError(f"tuple {tid} is not on the surface")
        row = int(hits[0])
        lo = int(self._starts[row])
        hi = int(self._starts[row + 1]) if row + 1 < len(self) else self._vx.size
        self.tids = np.delete(self.tids, row)
        self._vx = np.delete(self._vx, np.s_[lo:hi])
        self._vy = np.delete(self._vy, np.s_[lo:hi])
        self._starts = np.delete(self._starts, row)
        self._starts[row:] -= hi - lo
        keep = self._ray_owner != row
        self._ray_x = self._ray_x[keep]
        self._ray_y = self._ray_y[keep]
        self._ray_owner = self._ray_owner[keep]
        self._ray_owner[self._ray_owner > row] -= 1
        self._fallback = [
            (r - 1 if r > row else r, f)
            for r, f in self._fallback
            if r != row
        ]
        self._forget_slopes()

    def _forget_slopes(self) -> None:
        self._top_cache.clear()
        self._bot_cache.clear()

    # ------------------------------------------------------------------
    # per-slope evaluation
    # ------------------------------------------------------------------
    def top_at(self, slope: float) -> np.ndarray:
        """``TOP^P(slope)`` for every tuple, in one vectorized pass."""
        return self._memoised(self._top_cache, float(slope), upper=True)

    def bot_at(self, slope: float) -> np.ndarray:
        """``BOT^P(slope)`` for every tuple, in one vectorized pass."""
        return self._memoised(self._bot_cache, float(slope), upper=False)

    def _memoised(
        self, cache: dict[float, np.ndarray], slope: float, upper: bool
    ) -> np.ndarray:
        cached = cache.get(slope)
        if cached is None:
            cached = self._evaluate(slope, upper)
            if len(cache) >= SLOPE_CACHE_CAPACITY:
                cache.pop(next(iter(cache)))
            cache[slope] = cached
        return cached

    def _evaluate(self, slope: float, upper: bool) -> np.ndarray:
        if self.tids.size == 0:
            return np.empty(0, dtype=np.float64)
        # Mirror the scalar support directions exactly:
        # TOP uses c = (-s, 1)  → contribution  (-s)·vx + vy
        # BOT uses c = ( s, -1) → support of s·vx - vy, negated afterwards
        if upper:
            contrib = (-slope) * self._vx + self._vy
        else:
            contrib = slope * self._vx - self._vy
        values = np.maximum.reduceat(contrib, self._starts)
        if self._ray_x.size:
            scale = max(abs(slope), 1.0)
            if upper:
                gain = (-slope) * self._ray_x + self._ray_y
            else:
                gain = slope * self._ray_x - self._ray_y
            unbounded = self._ray_owner[gain > _RAY_TOL * scale]
            values[unbounded] = math.inf
        if not upper:
            values = -values
        for row, t in self._fallback:
            poly = t.extension()
            exact = dual.top(poly, slope) if upper else dual.bot(poly, slope)
            assert exact is not None
            values[row] = exact
        return values

    # ------------------------------------------------------------------
    # support vertices and extents (the per-tuple dual summaries)
    # ------------------------------------------------------------------
    def supports(self, slopes: Sequence[float]) -> list[np.ndarray]:
        """``[TOP, TOP x, BOT, BOT x]``, each ``(len(self), len(slopes))``:
        the vertex maximum of ``TOP`` (minimum of ``BOT``) at each slope
        and the x of the first vertex attaining it — the support vertex,
        whose dual line ``TOP(s) + (s - a)·x`` bounds ``TOP(a)`` from
        below (``BOT(a)`` from above) at every ``a``.

        Values are bit-identical to :meth:`top_at`/:meth:`bot_at` for
        bounded tuples with a vertex; rays and vertex-free rows (their
        placeholder vertex) are not applied here.
        """
        s = np.asarray(slopes, dtype=np.float64)
        vx, vy = self._vx[:, None], self._vy[:, None]
        sizes = np.diff(self._starts, append=self._vx.size)
        owner = np.repeat(np.arange(len(self)), sizes)
        index = np.arange(self._vx.size)[:, None]
        out = []
        # TOP uses c = (-s, 1) and BOT c = (s, -1), negated afterwards,
        # exactly as _evaluate does.
        for sign in (1.0, -1.0):
            contrib = (-s) * vx + vy if sign > 0 else s * vx - vy
            peak = np.maximum.reduceat(contrib, self._starts, axis=0)
            at = np.where(contrib == peak[owner], index, self._vx.size)
            first = np.minimum.reduceat(at, self._starts, axis=0)
            out += [sign * peak, self._vx[first]]
        return out

    def x_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-tuple ``(min x, max x)`` over the vertices."""
        return (
            np.minimum.reduceat(self._vx, self._starts),
            np.maximum.reduceat(self._vx, self._starts),
        )

    def bounded_rows(self) -> np.ndarray:
        """Mask of the tuples that are bounded and have a vertex: the
        ones whose vertices alone determine ``TOP``/``BOT``."""
        mask = np.ones(len(self), dtype=bool)
        mask[self._ray_owner] = False
        mask[[row for row, _t in self._fallback]] = False
        return mask

    # ------------------------------------------------------------------
    # Proposition 2.2 answers
    # ------------------------------------------------------------------
    def answer(
        self,
        query_type: str,
        slope: float,
        intercept: float,
        theta: Theta,
        tol: float = ORACLE_TOL,
    ) -> set[int]:
        """Exact oracle answer set for one half-plane selection.

        Applies Proposition 2.2 with the oracle tolerance over the
        vectorized surface values: e.g. ``EXIST(q(>=))`` selects the
        tuples with ``b <= TOP^P(s) + tol``. Bit-identical surface
        values + identical comparisons ⇒ answers identical to the
        scalar oracle (and hence to the refined planner result).
        """
        # set(tolist()) over the masked column: same set as a per-element
        # comprehension, one C pass instead of n int() calls.
        return set(self.answer_tids(query_type, slope, intercept, theta, tol).tolist())

    def answer_tids(
        self,
        query_type: str,
        slope: float,
        intercept: float,
        theta: Theta,
        tol: float = ORACLE_TOL,
    ) -> np.ndarray:
        """:meth:`answer` as a tid column (no Python-set materialisation) —
        the batch executor hands this to :meth:`QueryResult.set_lazy_ids`."""
        surface = self._surface_for(query_type, slope, theta)
        if theta is Theta.GE:
            mask = intercept <= surface + tol
        else:
            mask = intercept >= surface - tol
        return self.tids[mask]

    def _surface_for(
        self, query_type: str, slope: float, theta: Theta
    ) -> np.ndarray:
        if theta not in (Theta.GE, Theta.LE):
            raise GeometryError(
                f"half-plane queries use >= or <=, got {theta}"
            )
        if query_type == "EXIST":
            use_top = theta is Theta.GE
        elif query_type == "ALL":
            use_top = theta is Theta.LE
        else:
            raise GeometryError(
                f"query type must be ALL or EXIST, got {query_type!r}"
            )
        return self.top_at(slope) if use_top else self.bot_at(slope)

    def __repr__(self) -> str:
        return (
            f"<DualSurface tuples={len(self)} vertices={self._vx.size} "
            f"rays={self._ray_x.size} slopes_cached="
            f"{len(self._top_cache) + len(self._bot_cache)}>"
        )


def surfaces_equal_scalar(
    surface: DualSurface, tuples: Sequence[GeneralizedTuple], slope: float
) -> bool:
    """Debug helper: does the vectorized pass match the scalar engine?

    Compares bit-for-bit (infinities included); used by the test-suite.
    """
    top = surface.top_at(slope)
    bot = surface.bot_at(slope)
    for i, t in enumerate(tuples):
        poly = t.extension()
        if dual.top(poly, slope) != top[i] or dual.bot(poly, slope) != bot[i]:
            return False
    return True
