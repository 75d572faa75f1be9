"""The predefined slope set ``S`` and its Table 1 case analysis.

Section 3 assumes query slopes come from a predefined set ``S`` of
cardinality ``k``; Section 4 approximates an arbitrary slope ``a ∉ S`` by
its neighbours in ``S``. In 2-D the neighbours are found by *rotating the
query line*: the slope axis wraps through the vertical, producing the
three cases of Table 1:

=====================  ==============================  ===================
case                   neighbours                      operators
=====================  ==============================  ===================
``a1 < a < a2``        enclosing slopes                ``θ1 = θ, θ2 = θ``
``a1 < a, a2 < a``     ``a1 = max S``, ``a2 = min S``  ``θ1 = θ, θ2 = ¬θ``
``a < a1, a < a2``     ``a1 = max S``, ``a2 = min S``  ``θ1 = ¬θ, θ2 = θ``
=====================  ==============================  ===================

(the second case is a query line steeper than every slope in ``S``; the
clockwise rotation meets ``max S`` first and the anti-clockwise rotation
wraps through the vertical to ``min S`` — and symmetrically for the
third.)
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Iterable

from repro.constraints.theta import Theta
from repro.errors import SlopeSetError

#: Slope-set membership tolerance: query slopes within this distance of a
#: slope in S take the exact path (pass it as :meth:`SlopeSet.index_of`'s
#: ``tol``).
SLOPE_TOL = 1e-12


class SlopeCase(enum.Enum):
    """Where a query slope falls relative to ``S``."""

    EXACT = "exact"          # a ∈ S — Section 3 applies directly
    INTERIOR = "interior"    # a1 < a < a2 (Table 1 row 1)
    ABOVE = "above"          # a > max S  (Table 1 row 2)
    BELOW = "below"          # a < min S  (Table 1 row 3)


@dataclass(frozen=True)
class NeighbourInfo:
    """T1's app-query skeleton for one query slope.

    ``index1``/``index2`` point into ``S``; ``flip1``/``flip2`` say
    whether the app-query operator is ``θ`` (False) or ``¬θ`` (True),
    following Table 1.
    """

    case: SlopeCase
    index1: int
    index2: int
    flip1: bool
    flip2: bool


class SlopeSet:
    """An immutable, sorted set of distinct 2-D angular coefficients."""

    def __init__(self, slopes: Iterable[float]) -> None:
        values = sorted(float(s) for s in slopes)
        if not values:
            raise SlopeSetError("slope set must not be empty")
        if any(math.isnan(s) or math.isinf(s) for s in values):
            raise SlopeSetError("slopes must be finite (no vertical lines)")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise SlopeSetError(f"duplicate slope {a}")
        self._slopes = tuple(values)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_angles(cls, angles_rad: Iterable[float]) -> "SlopeSet":
        """Slopes ``tan(φ)`` from line angles (must avoid ``π/2``)."""
        return cls(math.tan(a) for a in angles_rad)

    @classmethod
    def uniform_angles(
        cls, k: int, margin: float = 0.18, vertical_margin: float = 0.18
    ) -> "SlopeSet":
        """``k`` slopes with angles evenly spread over
        ``(margin, π - margin)`` staying ``vertical_margin`` away from the
        vertical ``π/2`` (a near-vertical slope would index a useless
        ``tan``-exploded axis). This is the benchmarks' default ``S``.
        """
        if k < 1:
            raise SlopeSetError("k must be >= 1")
        lo, hi = margin, math.pi - margin
        v_lo, v_hi = math.pi / 2 - vertical_margin, math.pi / 2 + vertical_margin
        # Usable arc length excluding the vertical keep-away band.
        left = max(0.0, v_lo - lo)
        right = max(0.0, hi - v_hi)
        total = left + right
        angles = []
        for i in range(k):
            pos = total * (i + 0.5) / k
            if pos < left:
                angles.append(lo + pos)
            else:
                angles.append(v_hi + (pos - left))
        return cls.from_angles(angles)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    @property
    def slopes(self) -> tuple[float, ...]:
        return self._slopes

    def __len__(self) -> int:
        return len(self._slopes)

    def __getitem__(self, index: int) -> float:
        return self._slopes[index]

    def __iter__(self):
        return iter(self._slopes)

    def __contains__(self, slope: float) -> bool:
        return self.index_of(slope) is not None

    def index_of(self, slope: float, tol: float = 0.0) -> int | None:
        """Index of a slope in ``S`` (optionally within ``tol``)."""
        i = bisect.bisect_left(self._slopes, slope)
        for j in (i - 1, i):
            if 0 <= j < len(self._slopes) and abs(self._slopes[j] - slope) <= tol:
                return j
        return None

    # ------------------------------------------------------------------
    # Table 1 analysis
    # ------------------------------------------------------------------
    def classify(self, slope: float, tol: float = 0.0) -> NeighbourInfo:
        """Neighbour slopes and operator flips for a query slope."""
        exact = self.index_of(slope, tol)
        if exact is not None:
            return NeighbourInfo(SlopeCase.EXACT, exact, exact, False, False)
        if len(self._slopes) == 1:
            # Degenerate S: both rotations reach the same slope; the
            # wrap-around rules still apply.
            case = SlopeCase.ABOVE if slope > self._slopes[0] else SlopeCase.BELOW
            flip2 = case is SlopeCase.ABOVE
            return NeighbourInfo(case, 0, 0, not flip2, flip2)
        if slope > self._slopes[-1]:
            # Clockwise rotation hits max S (same operator); the
            # anti-clockwise one wraps through vertical to min S (¬θ).
            return NeighbourInfo(
                SlopeCase.ABOVE, len(self._slopes) - 1, 0, False, True
            )
        if slope < self._slopes[0]:
            return NeighbourInfo(
                SlopeCase.BELOW, len(self._slopes) - 1, 0, True, False
            )
        i = bisect.bisect_left(self._slopes, slope)
        return NeighbourInfo(SlopeCase.INTERIOR, i - 1, i, False, False)

    def nearest(self, slope: float) -> int:
        """Index of the slope in ``S`` closest to ``slope``."""
        i = bisect.bisect_left(self._slopes, slope)
        best = None
        best_dist = math.inf
        for j in (i - 1, i):
            if 0 <= j < len(self._slopes):
                dist = abs(self._slopes[j] - slope)
                if dist < best_dist:
                    best, best_dist = j, dist
        assert best is not None
        return best

    # ------------------------------------------------------------------
    # T2 strips
    # ------------------------------------------------------------------
    def strip(self, index: int, side: str) -> tuple[float, float] | None:
        """The handicap strip ``[s_i, s_mid]`` toward a neighbour.

        ``side`` is ``"next"`` or ``"prev"``; returns ``None`` when the
        slope has no neighbour on that side (edge of ``S``).
        """
        if side == "next":
            if index + 1 >= len(self._slopes):
                return None
            return (
                self._slopes[index],
                (self._slopes[index] + self._slopes[index + 1]) / 2.0,
            )
        if side == "prev":
            if index == 0:
                return None
            return (
                self._slopes[index],
                (self._slopes[index - 1] + self._slopes[index]) / 2.0,
            )
        raise SlopeSetError(f"side must be 'next' or 'prev', got {side!r}")

    def anchor_for(self, slope: float) -> tuple[int, str] | None:
        """T2 anchor: nearest slope index and the strip side covering
        ``slope``. ``None`` when the query slope is outside
        ``(min S, max S)`` — T2's interior case does not apply and the
        planner falls back to T1 (the paper treats these wrap cases "in a
        similar way"; see DESIGN.md).
        """
        if not (self._slopes[0] < slope < self._slopes[-1]):
            return None
        index = self.nearest(slope)
        side = "next" if slope >= self._slopes[index] else "prev"
        if self.strip(index, side) is None:  # pragma: no cover - interior slope
            return None
        return index, side

    @staticmethod
    def app_theta(theta: Theta, flip: bool) -> Theta:
        """Apply Table 1's operator column."""
        return theta.negated() if flip else theta

    def __repr__(self) -> str:
        return f"SlopeSet({list(self._slopes)!r})"
