"""The columnar refinement kernel decides exactly as the scalar predicates.

:func:`repro.geometry.predicates.halfplane_rows` may leave a row
undecided, but every row it decides must get the scalar predicate's
answer on the same record, at every intercept where the two could
disagree: on a tuple's surface, one ``ORACLE_TOL`` off it, and at and
past the kernel's own margin ``δ``.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest

from repro.constraints import GeneralizedTuple, LinearConstraint
from repro.constraints.theta import Theta
from repro.core.planner import DualIndexPlanner
from repro.core.query import EXIST, HalfPlaneQuery
from repro.geometry import dual
from repro.geometry.polyhedron import DEDUPE_TOL
from repro.geometry.predicates import (
    ORACLE_TOL,
    all_halfplane,
    exist_halfplane,
    halfplane_rows,
)
from repro.obs.trace import QueryTrace, tracing
from repro.storage.pager import Pager
from repro.storage.serialize import (
    decode_halfplanes_2d,
    decode_tuple,
    encode_tuple,
)
from tests.conftest import boundary_intercepts, random_mixed_relation

#: Theta codes of the record layout (``serialize._THETA_CODES``).
_CODES = {"<=": 0, ">=": 1, "=": 2, "<": 3, ">": 4}

#: Slopes of every kind: the index's, interior, steep and near-vertical.
SLOPES = (0.0, 0.37, -1.3, 4.0, -25.0, 1e3, -4e4)


def raw_record(tid: int, atoms) -> bytes:
    """A 2-D heap record holding ``atoms`` as written — ``=``, strict and
    trivial atoms included, which a normalised tuple would not keep."""
    parts = [struct.pack("<IBB", tid, 2, len(atoms))]
    for (a, b), const, op in atoms:
        parts.append(struct.pack("<2d", a, b))
        parts.append(struct.pack("<dB", const, _CODES[op]))
    return b"".join(parts)


def _special_records(start: int) -> list[bytes]:
    """Shapes beyond the mixed relation's polygons and unbounded tuples."""
    shapes = [
        # segment on y = 2x + 1 (an = atom), 0 <= x <= 3
        [((-2.0, 1.0), -1.0, "="), ((1.0, 0.0), 0.0, ">="),
         ((1.0, 0.0), -3.0, "<=")],
        # the point (1, 2) from two = atoms
        [((1.0, 0.0), -1.0, "="), ((0.0, 1.0), -2.0, "=")],
        # an open box: strict atoms are closed
        [((1.0, 0.0), 0.0, ">"), ((1.0, 0.0), -2.0, "<"),
         ((0.0, 1.0), 0.0, ">"), ((0.0, 1.0), -1.0, "<")],
        # a triangle with a tautology (0 <= 1) and a repeated atom
        [((0.0, 1.0), 0.0, ">="), ((-1.0, 1.0), 0.0, "<="),
         ((0.0, 0.0), -1.0, "<="), ((1.0, 1.0), -4.0, "<="),
         ((0.0, 1.0), 0.0, ">=")],
        # a contradictory atom (1 <= 0) in an otherwise bounded box
        [((1.0, 0.0), 0.0, ">="), ((1.0, 0.0), -1.0, "<="),
         ((0.0, 1.0), 0.0, ">="), ((0.0, 1.0), -1.0, "<="),
         ((0.0, 0.0), 1.0, "<=")],
        # geometrically empty: x >= 1 and x <= 0 and y bounded
        [((1.0, 0.0), -1.0, ">="), ((1.0, 0.0), 0.0, "<="),
         ((0.0, 1.0), 0.0, ">="), ((0.0, 1.0), -1.0, "<=")],
        # a slab written with an = atom's two sides and a strict side
        [((-0.5, 1.0), 0.0, ">="), ((-0.5, 1.0), -3.0, "<")],
        # a box whose corner three lines nearly share: a degenerate hull
        [((1.0, 0.0), 0.0, ">="), ((1.0, 0.0), -1.0, "<="),
         ((0.0, 1.0), 0.0, ">="), ((0.0, 1.0), -1.0, "<="),
         ((1.0, 1.0), -(2.0 + 1e-10), "<=")],
        # a thin wedge (unbounded, with a vertex)
        [((-1.0, 1.0), 0.0, ">="), ((-1.001, 1.0), 0.0, "<=")],
    ]
    return [raw_record(start + i, atoms) for i, atoms in enumerate(shapes)]


@pytest.fixture(scope="module")
def records():
    relation = random_mixed_relation(random.Random(8), 120, 0.3)
    payloads = [encode_tuple(tid, t) for tid, t in relation]
    return payloads + _special_records(len(payloads))


def _delta(poly, slope: float) -> float:
    """The kernel's margin for a bounded polygon (from its vertices)."""
    xs = [abs(v[0]) for v in poly.vertices()]
    ys = [abs(v[1]) for v in poly.vertices()]
    return 2.0 * DEDUPE_TOL * (
        abs(slope) * max([1.0, *xs]) + max([1.0, *ys])
    )


def _intercepts(decoded, slope: float) -> list[float]:
    tuples = [t for _tid, t in decoded if not t.extension().is_empty]
    out = boundary_intercepts(tuples, slope, per_side=4)
    for t in tuples[:6]:
        poly = t.extension()
        if not poly.is_bounded:
            continue
        delta = _delta(poly, slope)
        for value in (dual.top(poly, slope), dual.bot(poly, slope)):
            for tol in (ORACLE_TOL, -ORACLE_TOL):
                out += [value + tol + f * delta for f in (-3, -1, 1, 3)]
    return out


@pytest.mark.parametrize("slope", SLOPES)
def test_decided_rows_equal_scalar_predicates(records, slope):
    rows = decode_halfplanes_2d(records)
    decoded = [decode_tuple(data) for data in records]
    assert rows.tids.tolist() == [tid for tid, _t in decoded]
    polys = [t.extension() for _tid, t in decoded]
    decided_total = 0
    for intercept in _intercepts(decoded, slope):
        for predicate in (all_halfplane, exist_halfplane):
            for theta in (Theta.GE, Theta.LE):
                holds, decided = predicate(rows, slope, intercept, theta)
                for r in np.flatnonzero(decided).tolist():
                    want = predicate(polys[r], slope, intercept, theta)
                    assert bool(holds[r]) == want, (predicate, theta, intercept, r)
                decided_total += int(decided.sum())
                # Unbounded, vertex-free, empty and contradictory
                # tuples never decide.
                for r, poly in enumerate(polys):
                    if poly.is_empty or not poly.is_bounded:
                        assert not decided[r]
                assert not decided[len(records) - 5]
    assert decided_total > 0


def test_record_flags_follow_normalize(records):
    rows = decode_halfplanes_2d(records)
    special = len(records) - 9
    # The contradictory atom empties its record's row.
    padding = (rows.nx == 0) & (rows.ny == 0) & (rows.beta == 0)
    assert padding.all(axis=1).tolist() == [False] * special + [
        False, False, False, False, True, False, False, False, False
    ]
    # The segment: = expands to its >= then <= row.
    seg = special
    assert rows.nx[seg, :4].tolist() == [2.0, -2.0, -1.0, 1.0]
    assert rows.beta[seg, :4].tolist() == [-1.0, 1.0, 0.0, 3.0]
    # The tautology is padding.
    tri = special + 3
    assert rows.nx[tri, 2] == rows.ny[tri, 2] == rows.beta[tri, 2] == 0.0


def test_degenerate_hull_takes_the_scalar_path(records):
    rows = decode_halfplanes_2d(records)
    box = len(records) - 2
    for intercept in (-5.0, 0.5, 5.0):
        _holds, decided = halfplane_rows(rows, EXIST, 0.5, intercept, Theta.GE)
        assert not decided[box]


def test_row_inside_delta_takes_the_scalar_path():
    """A query on a polygon's surface (plus ORACLE_TOL) sits inside the
    margin, so the kernel leaves it to the scalar predicate; three
    margins away it decides. Through the planner, the fallback shows in
    the ``refine.scalar_fallbacks`` counter and the answer is exact."""
    t = GeneralizedTuple.from_vertices_2d([(0, 0), (4, 0), (2, 3)])
    slope = 0.37
    rows = decode_halfplanes_2d([encode_tuple(0, t)])
    top = dual.top(t.extension(), slope)
    delta = _delta(t.extension(), slope)
    on_edge = top + ORACLE_TOL
    holds, decided = halfplane_rows(rows, EXIST, slope, on_edge, Theta.GE)
    assert not decided[0]
    for intercept, want in ((on_edge - 3 * delta, True),
                            (on_edge + 3 * delta, False)):
        holds, decided = halfplane_rows(rows, EXIST, slope, intercept, Theta.GE)
        assert decided[0] and bool(holds[0]) is want

    relation = random_mixed_relation(random.Random(3), 40, 0.0)
    tid = relation.add(t)
    planner = DualIndexPlanner.build(relation, [-1.0, 0.0, 1.0], pager=Pager())
    for intercept in (on_edge, on_edge + 3 * delta):
        query = HalfPlaneQuery(EXIST, slope, intercept, ">=")
        with tracing(QueryTrace()):
            res = planner.query(query)
        fallbacks = res.trace.total_counters()["refine.scalar_fallbacks"]
        assert fallbacks >= (intercept == on_edge)
        assert (tid in res.ids) == (intercept <= top + ORACLE_TOL)


def test_near_vertical_slope_widens_the_margin():
    t = GeneralizedTuple([
        LinearConstraint((1.0, 0.0), -10.0, ">="),
        LinearConstraint((1.0, 0.0), -11.0, "<="),
        LinearConstraint((0.0, 1.0), 0.0, ">="),
        LinearConstraint((0.0, 1.0), -1.0, "<="),
    ])
    rows = decode_halfplanes_2d([encode_tuple(0, t)])
    slope = -1e6
    top = dual.top(t.extension(), slope)
    assert math.isclose(top, 1.0 + 11e6)
    # 1e-3 from the surface is inside δ ≈ 2.2 at this slope.
    _holds, decided = halfplane_rows(rows, EXIST, slope, top + 1e-3, Theta.GE)
    assert not decided[0]
    holds, decided = halfplane_rows(rows, EXIST, slope, top + 10.0, Theta.GE)
    assert decided[0] and not holds[0]
