"""Seeded inputs: relations, calibrated query streams, write streams.

Every generator here is a pure function of its seed; the program under
test only ever sees the generated inputs. All workloads use the paper's
fig9-medium configuration: n = 2000 medium objects, k = 3 uniform-angle
slopes.

Intercepts are calibrated to the 10–15 % selectivity band with
Proposition 2.2: a half-plane query's answer is a quantile cut of the
relation's TOP or BOT values at the query slope, so the intercept is
placed at the matching order statistic of one vectorized
:class:`~repro.geometry.vectorized.DualSurface` pass — the same rule as
:func:`repro.workloads.queries.intercept_for_selectivity`, without its
per-tuple scalar support calls.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

import numpy as np

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.core import HalfPlaneQuery, SlopeSet
from repro.core.query import ALL, EXIST
from repro.geometry.vectorized import DualSurface
from repro.workloads import make_relation
from repro.workloads.skew import skewed_slopes

N = 2000
SIZE = "medium"
K = 3
SELECTIVITY = (0.10, 0.15)

#: Keep lines off vertical, like :func:`repro.workloads.generator.random_edge_angles`.
_VERTICAL_MARGIN = 0.06
#: Rebuild the calibration surface after this many slopes: the surface
#: memoises every slope it evaluates, and cold streams never repeat one.
_SURFACE_SLOPES = 256
#: Non-anchor slopes a batch-sharded run draws from.
BATCH_SLOPE_POOL = 256
#: Zipf exponent of the serve-rw read popularity.
ZIPF_S = 1.1


def relation(seed: int, n: int = N) -> GeneralizedRelation:
    """The seeded fig9-medium relation."""
    return make_relation(n, SIZE, seed=seed)


def slope_set() -> SlopeSet:
    """The build-time slope set S."""
    return SlopeSet.uniform_angles(K)


def cold_copy(rel: GeneralizedRelation) -> GeneralizedRelation:
    """The same tuples as fresh objects without cached geometry, so every
    timed build pays the full cost a fresh process pays."""
    return GeneralizedRelation(
        [GeneralizedTuple(t.constraints) for _tid, t in rel], name=rel.name)


def surface_side(query_type: str, theta: Theta) -> str:
    """Which dual surface decides the query (Proposition 2.2)."""
    if query_type == EXIST:
        return "top" if theta is Theta.GE else "bot"
    return "bot" if theta is Theta.GE else "top"


def intercept_from_sorted(values: np.ndarray, theta: Theta,
                          selectivity: float, position: float = 0.5) -> float:
    """The intercept selecting ``selectivity`` of the tuples whose
    deciding surface values are ``values`` (sorted ascending).

    The order-statistic rule of ``intercept_for_selectivity``, which
    takes the midpoint between the two neighbouring values
    (``position`` 0.5). Streams draw ``position`` at random: a band of
    selectivities maps to only ~100 order statistics per slope, so
    midpoints alone would repeat queries on the few slopes of S.
    """
    n = len(values)
    want = max(1, min(n, round(selectivity * n)))
    if theta is Theta.GE:
        index = n - want
        lo = values[index - 1] if index > 0 else values[0] - 1.0
        hi = values[index]
    else:
        index = want - 1
        lo = values[index]
        hi = values[index + 1] if index + 1 < n else values[index] + 1.0
    mid = float(lo) + (float(hi) - float(lo)) * position
    if not math.isfinite(mid):
        mid = float(lo) if math.isfinite(lo) else float(hi)
        if not math.isfinite(mid):
            mid = 0.0
    return mid


class Calibrator:
    """Sorted TOP/BOT columns of one relation at any slope."""

    def __init__(self, rel: GeneralizedRelation) -> None:
        self._items = list(rel)
        self._surface: DualSurface | None = None
        self._evaluated = 0

    def sorted_values(self, slope: float, side: str) -> np.ndarray:
        if self._surface is None or self._evaluated >= _SURFACE_SLOPES:
            self._surface = DualSurface.from_items(self._items)
            self._evaluated = 0
        self._evaluated += 1
        column = self._surface.top_at(slope) if side == "top" \
            else self._surface.bot_at(slope)
        return np.sort(column)

    def query(self, query_type: str, slope: float, theta: Theta,
              selectivity: float, position: float = 0.5) -> HalfPlaneQuery:
        values = self.sorted_values(slope, surface_side(query_type, theta))
        return _calibrated(values, query_type, slope, theta, selectivity,
                           position)


def _calibrated(values: np.ndarray, query_type: str, slope: float,
                theta: Theta, selectivity: float,
                position: float) -> HalfPlaneQuery:
    return HalfPlaneQuery(
        query_type, slope,
        intercept_from_sorted(values, theta, selectivity, position), theta)


def _key(query: HalfPlaneQuery) -> tuple:
    return (query.query_type, query.slope_2d, query.intercept, query.theta)


def _uniform_slope(rng: random.Random, lo: float = 0.0,
                   hi: float = math.pi) -> float:
    """tan of an angle uniform in ``[lo, hi)``, off vertical."""
    while True:
        phi = rng.uniform(lo, hi)
        if abs(phi - math.pi / 2) >= _VERTICAL_MARGIN:
            return math.tan(phi)


_KINDS = [(t, th) for t in (EXIST, ALL) for th in (Theta.GE, Theta.LE)]


def paper_block(rel: GeneralizedRelation,
                seed: int | str) -> list[HalfPlaneQuery]:
    """Sixteen queries of the uniform-angle family as a balanced design.

    A query's cost is set by its candidate count, which depends jointly
    on its type, θ and slope (T1 outside ``(min S, max S)``, T2 inside),
    and a run only gets through about twenty queries, too few for a
    random draw to have the same mix twice. So the angle range is cut
    into eight equal strata starting at the T1/T2 boundary
    ``atan(max S)`` — for the uniform three-slope S the T1 region is
    three of them — and each stratum gets one ALL and one EXIST query,
    θ alternating so that each type/θ pair appears four times. The seed
    draws the slope inside its stratum, the selectivity, the intercept
    between its order statistics and the order.
    """
    rng = random.Random(f"paper:{seed}")
    cal = Calibrator(rel)
    origin = math.atan(list(slope_set())[-1])
    width = math.pi / 8
    cells = [(stratum, query_type) for stratum in range(8)
             for query_type in (EXIST, ALL)]
    rng.shuffle(cells)
    out = []
    for stratum, query_type in cells:
        theta = Theta.GE if (stratum + (query_type == ALL)) % 2 else Theta.LE
        lo = origin + stratum * width
        out.append(cal.query(query_type, _uniform_slope(rng, lo, lo + width),
                             theta, rng.uniform(*SELECTIVITY),
                             rng.uniform(0.1, 0.9)))
    return out


def cold_stream(rel: GeneralizedRelation, count: int,
                seed: int) -> list[HalfPlaneQuery]:
    """Distinct queries; every fourth on a slope of S, the rest on fresh
    uniform angles (so no slope but S's ever repeats)."""
    rng = random.Random(f"cold:{seed}")
    cal = Calibrator(rel)
    anchors = list(slope_set())
    out: list[HalfPlaneQuery] = []
    seen: set[tuple] = set()
    while len(out) < count:
        i = len(out)
        slope = anchors[(i // 4) % len(anchors)] if i % 4 == 0 \
            else _uniform_slope(rng)
        query_type, theta = rng.choice(_KINDS)
        query = cal.query(query_type, slope, theta, rng.uniform(*SELECTIVITY),
                          rng.uniform(0.1, 0.9))
        if _key(query) not in seen:
            seen.add(_key(query))
            out.append(query)
    return out


class SlopePool:
    """Sorted TOP/BOT columns cached for a fixed set of slopes, so many
    queries on few slopes calibrate at one lookup each."""

    def __init__(self, rel: GeneralizedRelation, slopes: list[float]) -> None:
        cal = Calibrator(rel)
        self._columns = {
            (s, side): cal.sorted_values(s, side)
            for s in slopes for side in ("top", "bot")
        }

    def query(self, query_type: str, slope: float, theta: Theta,
              selectivity: float, position: float) -> HalfPlaneQuery:
        values = self._columns[(slope, surface_side(query_type, theta))]
        return _calibrated(values, query_type, slope, theta, selectivity,
                           position)


def batch_stream(rel: GeneralizedRelation, seed: int | str, size: int = 64):
    """Endless distinct ``size``-query batches: half on slopes of S
    (merged sweeps), half on a seeded pool of :data:`BATCH_SLOPE_POOL`
    uniform angles (vector path). The pool bounds the vector surface's
    per-slope memo, which otherwise grows by one column per distinct
    slope for good. Batches are made on demand, so no run holds more
    than it uses."""
    rng = random.Random(f"batch:{seed}")
    anchors = list(slope_set())
    uniform = [_uniform_slope(rng) for _ in range(BATCH_SLOPE_POOL)]
    slopes = SlopePool(rel, anchors + uniform)
    while True:
        batch = []
        for j in range(size):
            slope = anchors[j % len(anchors)] if j < size // 2 \
                else rng.choice(uniform)
            query_type, theta = rng.choice(_KINDS)
            batch.append(slopes.query(query_type, slope, theta,
                                      rng.uniform(*SELECTIVITY),
                                      rng.uniform(0.1, 0.9)))
        yield batch


def skewed_pool(rel: GeneralizedRelation, size: int,
                seed: int) -> list[HalfPlaneQuery]:
    """``size`` distinct skewed-family queries (hot slopes outside S)."""
    rng = random.Random(f"skewpool:{seed}")
    slopes = skewed_slopes(rng, size)
    pool = SlopePool(rel, sorted(set(slopes)))
    seen = set()
    out = []
    for slope in slopes:
        query_type, theta = rng.choice(_KINDS)
        query = pool.query(query_type, slope, theta, rng.uniform(*SELECTIVITY),
                           rng.uniform(0.1, 0.9))
        if _key(query) not in seen:
            seen.add(_key(query))
            out.append(query)
    return out


class Zipf:
    """Seeded Zipf(:data:`ZIPF_S`) sampler over ``size`` ranks; which pool
    entry gets which rank is itself a seeded permutation."""

    def __init__(self, size: int, seed: int | str) -> None:
        self._rng = random.Random(f"zipf:{seed}")
        self.order = list(range(size))
        self._rng.shuffle(self.order)
        weights = [(rank + 1) ** -ZIPF_S for rank in range(size)]
        total = sum(weights)
        self._cdf = [acc / total for acc in itertools.accumulate(weights)]

    def draw(self) -> int:
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        return self.order[min(rank, len(self.order) - 1)]


def fresh_tuples(count: int, seed: int) -> list[GeneralizedTuple]:
    """Insert payloads: medium tuples from a stream disjoint from the
    relation's."""
    extra = make_relation(count, SIZE, seed=10_000_019 + seed)
    return [t for _tid, t in extra]
