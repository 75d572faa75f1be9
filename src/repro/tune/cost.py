"""The predicted-cost model: what a candidate slope set would cost.

Theorems 4.1/4.2 bound the T1/T2 overhead beyond the output size by
terms proportional to the distance between the query slope and its
nearest member of ``S`` (the extra sweep covers exactly the tuples
whose dual surfaces cross between the two slopes). The model therefore
scores a candidate ``S`` by the *expected nearest-anchor distance in
angle space* under the logged traffic distribution — cheap enough to
evaluate for many candidates, monotone in the quantity the theorems
price, and requiring no rebuild.

The model deliberately reports a dimensionless ratio rather than page
counts: the constant linking angle distance to pages depends on the
data distribution; ``tests/tune/test_learned_slopes_fig9.py``
measures it on fig9-medium.
Slopes within ``SLOPE_TOL`` of a member take the exact path (zero
extra sweep), which the expectation captures as a distance of 0.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.slope_set import SlopeSet
from repro.obs.slopelog import SlopeLogSnapshot


def _angle_points(
    snapshot: SlopeLogSnapshot | Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(snapshot, SlopeLogSnapshot):
        from repro.tune.learner import _weighted_points

        return _weighted_points(snapshot)
    finite = [s for s in snapshot if math.isfinite(s)]
    return np.arctan(np.asarray(finite, dtype=np.float64)), np.ones(len(finite))


def expected_distance(
    snapshot: SlopeLogSnapshot | Sequence[float],
    slopes: SlopeSet | Sequence[float],
) -> float:
    """Expected angle distance from a logged query slope to its nearest
    member of ``slopes`` — the per-query cost surrogate of Theorems
    4.1/4.2. Returns 0.0 when nothing was logged.

    >>> from repro.tune.cost import expected_distance
    >>> expected_distance([0.5, 0.5, 0.5], [0.5, 2.0])
    0.0
    >>> round(expected_distance([1.0], [0.0]), 6)
    0.785398
    """
    angles, weights = _angle_points(snapshot)
    if len(angles) == 0 or weights.sum() == 0:
        return 0.0
    anchors = np.arctan(np.asarray(list(slopes), dtype=np.float64))
    dist = np.abs(angles[:, None] - anchors[None, :]).min(axis=1)
    return float((dist * weights).sum() / weights.sum())


def nearest_anchor_distance(slope: float, anchors: Sequence[float]) -> float:
    """Angle distance from one query slope to its nearest anchor in
    ``S`` — the per-query quantity Theorems 4.1/4.2 price.

    >>> from repro.tune.cost import nearest_anchor_distance
    >>> nearest_anchor_distance(0.5, [0.5, 2.0])
    0.0
    >>> round(nearest_anchor_distance(1.0, [0.0]), 6)
    0.785398
    """
    finite = [a for a in anchors if math.isfinite(a)]
    if not finite or not math.isfinite(slope):
        return 0.0
    angle = math.atan(slope)
    return min(abs(angle - math.atan(a)) for a in finite)


class PageCostModel:
    """Online calibration of the theorems into *pages*: the serve-path
    cost watchdog.

    :func:`expected_distance` is deliberately dimensionless — the
    constant linking angle distance to pages depends on the data
    distribution. This model learns that constant live: each traced
    query contributes an ``(distance, observed pages)`` point to a
    running least-squares fit ``pages ≈ base + slope · distance``, and
    once ``min_samples`` points are in, :meth:`predict` prices new
    queries. The fit is clamped to be monotone (a negative fitted slope
    collapses to the running mean — distance then carries no signal in
    this deployment, and the watchdog degrades to a mean-based SLO).

    >>> from repro.tune.cost import PageCostModel
    >>> model = PageCostModel([0.0], min_samples=4)
    >>> for d_slope, pages in [(0.0, 10), (0.0, 12), (1.0, 30), (1.0, 32)]:
    ...     model.observe(d_slope, pages)
    >>> model.calibrated
    True
    >>> 8.0 < model.predict(0.0) < 14.0
    True
    >>> 26.0 < model.predict(1.0) < 36.0
    True
    """

    def __init__(self, anchors: Sequence[float], min_samples: int = 32) -> None:
        self.anchors = [float(a) for a in anchors if math.isfinite(a)]
        #: Anchor *angles*, precomputed: distance() runs once or twice
        #: per served query, so the atan over S must not be per-call.
        self._angles = [math.atan(a) for a in self.anchors]
        self.min_samples = max(2, min_samples)
        self.n = 0
        self._sum_d = 0.0
        self._sum_p = 0.0
        self._sum_dd = 0.0
        self._sum_dp = 0.0

    @property
    def calibrated(self) -> bool:
        return self.n >= self.min_samples

    def reset_anchors(self, anchors: Sequence[float]) -> None:
        """Re-anchor after a tune swap; the calibration restarts because
        the fitted constant belongs to the old ``S``."""
        self.anchors = [float(a) for a in anchors if math.isfinite(a)]
        self._angles = [math.atan(a) for a in self.anchors]
        self.n = 0
        self._sum_d = self._sum_p = self._sum_dd = self._sum_dp = 0.0

    def distance(self, slope: float) -> float:
        if not self._angles or not math.isfinite(slope):
            return 0.0
        angle = math.atan(slope)
        return min(abs(angle - a) for a in self._angles)

    def observe(
        self, slope: float, pages: float, distance: float | None = None
    ) -> None:
        """Feed one traced query's observed page cost into the fit.

        ``distance`` short-circuits the anchor scan when the caller
        already priced this slope (the serve path predicts *and*
        observes every query — one scan, not two).
        """
        d = self.distance(slope) if distance is None else distance
        self.n += 1
        self._sum_d += d
        self._sum_p += pages
        self._sum_dd += d * d
        self._sum_dp += d * pages

    def predict(
        self, slope: float, distance: float | None = None
    ) -> float | None:
        """Predicted pages for ``slope``; ``None`` until calibrated.
        Never below 1.0 — every query reads at least one page."""
        if not self.calibrated:
            return None
        var = self._sum_dd - self._sum_d * self._sum_d / self.n
        mean_p = self._sum_p / self.n
        if var <= 1e-12:
            return max(1.0, mean_p)
        beta = (self._sum_dp - self._sum_d * self._sum_p / self.n) / var
        if beta < 0.0:
            return max(1.0, mean_p)
        base = mean_p - beta * (self._sum_d / self.n)
        if distance is None:
            distance = self.distance(slope)
        return max(1.0, base + beta * distance)

    def state(self) -> dict:
        """JSON-ready snapshot (``repro top`` / the ``stats`` op)."""
        return {
            "anchors": list(self.anchors),
            "samples": self.n,
            "calibrated": self.calibrated,
            "mean_pages": (self._sum_p / self.n) if self.n else 0.0,
        }


def predicted_improvement(
    snapshot: SlopeLogSnapshot | Sequence[float],
    current: SlopeSet | Sequence[float],
    learned: SlopeSet | Sequence[float],
) -> dict:
    """Score ``learned`` against ``current`` under the logged traffic.

    Returns a JSON-ready report: both expected distances, the predicted
    cost ratio (``learned / current``; < 1 means the rebuild should
    win), and the fraction of logged traffic that would hit the exact
    path (distance ~ 0) under each set.
    """
    angles, weights = _angle_points(snapshot)
    report = {
        "expected_distance_current": expected_distance(snapshot, current),
        "expected_distance_learned": expected_distance(snapshot, learned),
    }
    cur = report["expected_distance_current"]
    new = report["expected_distance_learned"]
    report["predicted_cost_ratio"] = (new / cur) if cur > 0 else 1.0
    for label, slope_set in (("current", current), ("learned", learned)):
        if len(angles) == 0:
            report[f"exact_fraction_{label}"] = 0.0
            continue
        anchors = np.arctan(np.asarray(list(slope_set), dtype=np.float64))
        dist = np.abs(angles[:, None] - anchors[None, :]).min(axis=1)
        exact = weights[dist < 1e-9].sum()
        report[f"exact_fraction_{label}"] = float(exact / weights.sum())
    return report
