"""Batched geometry warm-ups are bit-identical to the scalar properties."""

from __future__ import annotations

import math
import random

import pytest

from repro.constraints import GeneralizedTuple
from repro.geometry.cone2d import (
    cone_normals,
    is_pointed_at_origin,
    pointed_many,
)
from repro.geometry.polyhedron import (
    WARM_CHUNK,
    warm_boundedness,
    warm_vertices,
)
from repro.workloads import make_relation
from repro.workloads.generator import unbounded_tuple
from tests.conftest import random_mixed_relation


def _polys(relation):
    return [t.extension() for _tid, t in relation]


def test_pointed_many_matches_scalar_edge_cases():
    cases = [
        [],
        [(1.0, 0.0)],
        [(1.0, 0.0), (-1.0, 0.0)],                    # slab: line cone
        [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],  # box: pointed
        [(1.0, 1.0), (-1.0, 1.0)],                    # wedge
        [(0.5, 0.5), (1.0, 1.0)],                     # parallel normals
    ]
    got = [bool(v) for v in pointed_many(cases)]
    want = [is_pointed_at_origin(ns) if ns else False for ns in cases]
    assert got == want


@pytest.mark.parametrize("size", ["small", "medium"])
def test_pointed_many_matches_scalar_on_workload(size):
    relation = make_relation(300, size, seed=13)
    normals = []
    want = []
    for poly in _polys(relation):
        if poly.is_empty:
            continue
        ns = cone_normals(poly._as_ineqs2d())
        normals.append(ns)
        want.append(is_pointed_at_origin(ns))
    assert [bool(v) for v in pointed_many(normals)] == want


def test_warmed_caches_equal_scalar_properties():
    rng = random.Random(99)
    warmed_rel = random_mixed_relation(rng, 80, unbounded_fraction=0.35)
    rng = random.Random(99)
    scalar_rel = random_mixed_relation(rng, 80, unbounded_fraction=0.35)
    warmed = _polys(warmed_rel)
    warm_boundedness(warmed)
    warm_vertices(warmed)
    for a, b in zip(warmed, _polys(scalar_rel)):
        assert a.is_bounded == b.is_bounded
        assert a.vertices() == b.vertices()
        assert a.rays() == b.rays()


def test_warm_is_idempotent_and_skips_cached():
    relation = make_relation(20, "small", seed=1)
    polys = _polys(relation)
    before = [p.vertices() for p in polys]  # scalar fills the caches
    warm_boundedness(polys)
    warm_vertices(polys)
    assert [p.vertices() for p in polys] == before
    warm_vertices([])  # empty input is a no-op


def _sliced_polys(seed):
    """More than two warm slices of polyhedra: the first slice holds
    triangles to hexagons, later ones up to 11-gons, and every fifth
    tuple is unbounded — so each slice pads to a different width."""
    rng = random.Random(seed)
    polys = []
    for i in range(2 * WARM_CHUNK + 40):
        if i % 5 == 4:
            t = unbounded_tuple(rng)
        else:
            sides = 3 + i % (4 if i < WARM_CHUNK else 9)
            radius = rng.uniform(1.0, 50.0)
            phase = rng.uniform(0.0, 2 * math.pi)
            cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            t = GeneralizedTuple.from_vertices_2d([
                (cx + radius * math.cos(phase + 2 * math.pi * v / sides),
                 cy + radius * math.sin(phase + 2 * math.pi * v / sides))
                for v in range(sides)
            ])
        polys.append(t.extension())
    return polys


def test_warm_slices_match_scalar_across_boundaries():
    warmed = _sliced_polys(5)
    widths = [
        max(len(p._as_ineqs2d()) for p in warmed[lo : lo + WARM_CHUNK])
        for lo in range(0, len(warmed), WARM_CHUNK)
    ]
    assert len(widths) == 3 and widths[0] < widths[1]
    warm_boundedness(warmed)
    warm_vertices(warmed)
    for got, fresh in zip(warmed, _sliced_polys(5)):
        assert got._bounded == fresh.is_bounded
        assert got._vertices == fresh.vertices()
