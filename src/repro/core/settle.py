"""Settling T1/T2 candidates from per-tuple dual summaries.

An extension beyond the paper (DESIGN.md): T1 and T2 candidate sets are
wide and mostly false hits, and refining a candidate means fetching and
decoding its heap record. By Proposition 2.2 the answer only compares
the intercept ``b`` with ``TOP^P(a)`` or ``BOT^P(a)``, and ``TOP^P`` is
convex (``BOT^P`` concave), so a few numbers per tuple bound both at any
query slope ``a``. For every anchor ``s_i`` of ``S`` a summary stores
``TOP(s_i)`` with the x of its support vertex and ``BOT(s_i)`` with the
x of its support vertex; plus the tuple's ``x_min``/``x_max``
(:func:`summary_rows`). Then:

* the *support line* ``TOP(s_i) + (s_i - a)·x`` bounds ``TOP(a)`` from
  below at every ``a`` (``BOT(a)`` from above);
* the *chord* between the anchors bracketing ``a`` bounds ``TOP(a)``
  from above inside ``[min S, max S]`` (``BOT(a)`` from below);
* the *extent line* ``TOP(s_i) + (s_i - a)·x_max`` for ``a < s_i`` (and
  ``x_min`` for ``a > s_i``) bounds it from above everywhere — the only
  upper bound outside ``[min S, max S]``, the wrap-case T1.

:func:`settle` decides in one numpy pass which candidates are definite
hits and definite misses; only the band between the bounds goes to
:func:`~repro.core.planner.refine_candidates`. Every bound is widened
by the key codec's margin (which covers the stored values' float32
rounding, scaled by ``|s_i - a|`` for the x terms) plus
:data:`~repro.geometry.predicates.ORACLE_TOL`, so a settled candidate
is decided exactly as the oracle decides it. Unbounded and vertex-free
tuples carry NaN summaries and always go to refinement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constraints.theta import Theta
from repro.core.query import EXIST, HalfPlaneQuery
from repro.geometry.predicates import ORACLE_TOL
from repro.geometry.vectorized import DualSurface


def summary_width(k: int) -> int:
    """Values per summary record for ``k`` anchors."""
    return 4 * k + 2


def summary_rows(surface: DualSurface, slopes: Sequence[float]) -> np.ndarray:
    """The summaries of every tuple of ``surface``, one row each.

    Columns: ``TOP(s_i)`` for each anchor, then the support-vertex x of
    each, then ``BOT(s_i)``, their support-vertex x, and finally
    ``x_min``, ``x_max``. Rows of unbounded and vertex-free tuples are
    NaN.
    """
    rows = np.column_stack([*surface.supports(slopes), *surface.x_range()])
    rows[~surface.bounded_rows()] = np.nan
    return rows


def settle(
    rows: np.ndarray,
    slopes: Sequence[float],
    query: HalfPlaneQuery,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the definite hits and definite misses among ``rows``.

    ``scale`` is the key codec's relative margin
    (:attr:`~repro.core.dual_index.DualIndex.margin_scale`). A row with
    any non-finite value is neither.
    """
    k = len(slopes)
    anchors = np.asarray(slopes, dtype=np.float64)
    a, b = query.slope_2d, query.intercept
    # Proposition 2.2: EXIST(>=) and ALL(<=) compare with TOP, the
    # other two with BOT.
    use_top = (query.query_type == EXIST) == (query.theta is Theta.GE)
    first = 0 if use_top else 2 * k
    values = rows[:, first : first + k]
    support_x = rows[:, first + k : first + 2 * k]
    x_min, x_max = rows[:, 4 * k : 4 * k + 1], rows[:, 4 * k + 1 :]
    d = anchors - a
    near = scale * np.maximum(1.0, np.abs(values)) + ORACLE_TOL

    def line(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return values + d * x, near + np.abs(d) * scale * np.maximum(
            1.0, np.abs(x)
        )

    with np.errstate(invalid="ignore", over="ignore"):
        support, support_w = line(support_x)
        # The vertex maximising (s_i - a)·x for TOP, minimising it for BOT.
        extent, extent_w = line(
            np.where((d > 0) == use_top, x_max, x_min)
        )
        if use_top:
            lower = (support - support_w).max(axis=1)
            upper = (extent + extent_w).min(axis=1)
        else:
            upper = (support + support_w).min(axis=1)
            lower = (extent - extent_w).max(axis=1)
        j = int(np.searchsorted(anchors, a))
        if 0 < j < k:
            w = (a - anchors[j - 1]) / (anchors[j] - anchors[j - 1])
            chord = values[:, j - 1] * (1.0 - w) + values[:, j] * w
            chord_w = np.maximum(near[:, j - 1], near[:, j])
            if use_top:
                upper = np.minimum(upper, chord + chord_w)
            else:
                lower = np.maximum(lower, chord - chord_w)
    finite = np.isfinite(rows).all(axis=1)
    below = finite & (b < lower)
    above = finite & (b > upper)
    # >=: a hit iff b <= F + tol; <=: a hit iff b >= F - tol.
    if query.theta is Theta.GE:
        return below, above
    return above, below
