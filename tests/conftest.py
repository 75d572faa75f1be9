"""Shared fixtures and helpers for the test-suite.

Hypothesis runs under named profiles (select with the
``HYPOTHESIS_PROFILE`` environment variable, default ``ci``):

* ``ci`` — derandomized with a modest example budget and no deadline:
  reproducible tier-1 runs that cannot flake on a slow runner;
* ``dev`` — random seeds and a larger budget for local exploration;
* ``nightly`` — the heavyweight budget the scheduled CI job uses.
"""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import settings

from repro.constraints import GeneralizedRelation, GeneralizedTuple
from repro.workloads.generator import polygon_tuple, unbounded_tuple

settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True
)
settings.register_profile("dev", max_examples=100, deadline=None)
settings.register_profile(
    "nightly", max_examples=500, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_bounded_tuple(rng: random.Random) -> GeneralizedTuple:
    """A random satisfiable bounded polygon tuple (redraws until valid)."""
    while True:
        center = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        t = polygon_tuple(rng, center, rng.uniform(20, 2000))
        if t is not None and t.is_satisfiable():
            return t


def random_mixed_relation(
    rng: random.Random, n: int, unbounded_fraction: float = 0.25
) -> GeneralizedRelation:
    """Bounded polygons mixed with unbounded tuples."""
    relation = GeneralizedRelation(name="mixed")
    while len(relation) < n:
        if rng.random() < unbounded_fraction:
            relation.add(unbounded_tuple(rng))
        else:
            relation.add(random_bounded_tuple(rng))
    return relation


@pytest.fixture(scope="session")
def triangle() -> GeneralizedTuple:
    """The (0,0)-(4,0)-(2,3) triangle used across geometry tests."""
    return GeneralizedTuple.from_vertices_2d([(0, 0), (4, 0), (2, 3)])


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isfinite(a) == math.isfinite(b), (a, b)
    if math.isinf(a) or math.isinf(b):
        assert a == b, (a, b)
    else:
        assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), (a, b)


def assert_tids_invert_catalog(index) -> None:
    """A :class:`~repro.core.dual_index.DualIndex`'s rid→tid gather over
    every live heap record equals the inverse of its ``rid_of``
    catalog."""
    live = [rid for rid, _data in index.heap.scan()]
    inverse = {rid: tid for tid, rid in index.rid_of.items()}
    assert sorted(live) == sorted(inverse)
    assert index.tids_for_rids(live).tolist() == [inverse[r] for r in live]


def scalar_refine(heap, query, rids):
    """Reference refinement: one scalar predicate call per candidate.

    Fetches and decodes the candidates exactly as
    :func:`repro.core.planner.refine_candidates` does, then tests each
    decoded tuple with :func:`exist_halfplane` / :func:`all_halfplane`.
    Returns ``(confirmed ids, false hits, refinement pages)``.
    """
    from repro.geometry.predicates import all_halfplane, exist_halfplane
    from repro.storage.heap import unpack_rid
    from repro.storage.serialize import decode_tuple

    predicate = all_halfplane if query.query_type == "ALL" else exist_halfplane
    rids = list(rids)
    pages = len({unpack_rid(rid)[0] for rid in rids})
    confirmed: set[int] = set()
    false_hits = 0
    for data in heap.fetch_batch(rids).values():
        tid, t = decode_tuple(data)
        if predicate(t.extension(), query.slope, query.intercept, query.theta):
            confirmed.add(tid)
        else:
            false_hits += 1
    return confirmed, false_hits, pages


def reference_app_sweep(tree, start, upward):
    """Reference restricted sweep: ``sweep_up``/``sweep_down`` from
    ``start``, entries filtered one by one. Returns ``(rids, pages)``."""
    threshold = tree.quantize(start)
    rids = []
    with tree.pager.measure() as scope:
        walk = tree.sweep_up(start) if upward else tree.sweep_down(start)
        for visit in walk:
            for key, rid in zip(visit.leaf.keys, visit.leaf.rids):
                if (key >= threshold) if upward else (key <= threshold):
                    rids.append(rid)
    return rids, scope.delta.logical_reads


def reference_handicap_sweep(tree, intercept, upward, slot, margin,
                             extrema=None):
    """Reference T2 walk over decoded leaves (Sections 4.2–4.4).

    The primary sweep is ``sweep_up``/``sweep_down`` from the quantized,
    margin-widened intercept; the secondary sweep walks ``read_leaf``
    the other way from the first primary leaf (not read again) while
    the keys stay inside the margin-widened handicap. ``extrema`` is the
    A7 assignment key range. Returns ``(rids, primary leaves, secondary
    leaves, pages)``.
    """
    from repro.storage.disk import NULL_PAGE

    rids = []
    primary = secondary = 0
    with tree.pager.measure() as scope:
        if upward:
            start = tree.quantize(intercept - margin(intercept))
            possible = extrema is None or start <= extrema[1]
            walk, handicap, pick = tree.sweep_up(start), math.inf, min
        else:
            start = tree.quantize(intercept + margin(intercept))
            possible = extrema is None or start >= extrema[0]
            walk, handicap, pick = tree.sweep_down(start), -math.inf, max
        first = None
        for visit in walk:
            first = visit.leaf if first is None else first
            primary += 1
            handicap = pick(handicap, visit.leaf.aux[slot])
            for key, rid in zip(visit.leaf.keys, visit.leaf.rids):
                if (key >= start) if upward else (key <= start):
                    rids.append(rid)
        if upward:
            possible = possible and handicap < start
            bound = tree.quantize(handicap - margin(handicap))
        else:
            possible = possible and handicap > start
            bound = tree.quantize(handicap + margin(handicap))
        leaf = first if possible else None
        while leaf is not None:
            for key, rid in zip(leaf.keys, leaf.rids):
                inside = bound <= key < start if upward else start < key <= bound
                if inside:
                    rids.append(rid)
            if upward:
                done = bool(leaf.keys) and leaf.keys[0] < bound
                pid = leaf.prev
            else:
                done = bool(leaf.keys) and leaf.keys[-1] > bound
                pid = leaf.next
            if done or pid == NULL_PAGE:
                break
            leaf = tree.read_leaf(pid)
            secondary += 1
    return rids, primary, secondary, scope.delta.logical_reads


def fan_batch(k: int, width: int = 20) -> list:
    """The slope-group fan: ``k × width × 4`` exact-path queries.

    For each slope of ``SlopeSet.uniform_angles(k)``, ``width``
    intercepts × {EXIST, ALL} × {>=, <=}, so the batch groups into one
    merged sweep per (slope, direction, type). Intercepts sweep the
    populated key range so answer sets span empty to nearly-everything;
    the per-slope offset keeps fans on different slopes from quantizing
    to identical key sets.
    """
    from repro.core import ALL, EXIST, HalfPlaneQuery, SlopeSet

    queries = []
    for i, slope in enumerate(SlopeSet.uniform_angles(k)):
        for j in range(width):
            intercept = -40.0 + 80.0 * j / max(width - 1, 1) + 0.37 * i
            queries.append(HalfPlaneQuery(EXIST, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(EXIST, slope, -intercept, "<="))
            queries.append(HalfPlaneQuery(ALL, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(ALL, slope, -intercept, "<="))
    return queries


def surface_values(tuples, slope: float, per_side: int = 3) -> list[float]:
    """The first ``per_side`` finite ``TOP(s)`` and ``BOT(s)`` values of
    ``tuples`` — intercepts that lie exactly on a candidate's surface."""
    from repro.geometry import dual

    values: list[float] = []
    for surface in (dual.top, dual.bot):
        finite = [
            v for v in (surface(t.extension(), slope) for t in tuples)
            if math.isfinite(v)
        ]
        values.extend(finite[:per_side])
    return values


def boundary_intercepts(tuples, slope: float, per_side: int = 3) -> list[float]:
    """Intercepts exactly at ``TOP(s)``/``BOT(s)`` of some tuples and at
    ``±ORACLE_TOL`` from them (plus one ulp past ``+ORACLE_TOL``) — the
    comparisons where a refinement pass could disagree with the oracle."""
    from repro.geometry.predicates import ORACLE_TOL

    out: list[float] = []
    for v in surface_values(tuples, slope, per_side):
        out += [
            v,
            v + ORACLE_TOL,
            v - ORACLE_TOL,
            math.nextafter(v + ORACLE_TOL, math.inf),
            math.nextafter(v - ORACLE_TOL, -math.inf),
        ]
    return out
