"""DualSurface: the bounded per-slope memo never changes a value, and
in-place inserts/deletes read back exactly like a rebuild."""

import random

import numpy as np
import pytest

from repro import parse_tuple
from repro.constraints.theta import Theta
from repro.core.dual_index import DualIndex
from repro.errors import GeometryError, IndexError_
from repro.geometry import vectorized
from repro.geometry.vectorized import DualSurface
from repro.verify import workload
from tests.conftest import random_mixed_relation


def _surface(seed=4):
    relation = random_mixed_relation(random.Random(seed), 60, 0.3)
    return DualSurface.from_items(relation)


def test_capacity_covers_the_largest_reused_slope_pool():
    assert vectorized.SLOPE_CACHE_CAPACITY >= 256


def test_eviction_never_changes_a_returned_value(monkeypatch):
    monkeypatch.setattr(vectorized, "SLOPE_CACHE_CAPACITY", 3)
    capped = _surface()
    reference = _surface()
    rng = random.Random(8)
    pool = [rng.uniform(-3.0, 3.0) for _ in range(7)] + [0.0, 1.0]
    for _ in range(120):
        slope = rng.choice(pool)
        got_top = capped.top_at(slope)
        got_bot = capped.bot_at(slope)
        assert len(capped._top_cache) <= 3
        assert len(capped._bot_cache) <= 3
        # The reference surface is evaluated fresh on every call.
        reference._top_cache.clear()
        reference._bot_cache.clear()
        assert np.array_equal(got_top, reference.top_at(slope))
        assert np.array_equal(got_bot, reference.bot_at(slope))


def test_eviction_is_oldest_first(monkeypatch):
    monkeypatch.setattr(vectorized, "SLOPE_CACHE_CAPACITY", 2)
    surface = _surface()
    for slope in (0.5, 1.5, 2.5):
        surface.top_at(slope)
    assert list(surface._top_cache) == [1.5, 2.5]
    first = surface.top_at(2.5)
    assert surface.top_at(2.5) is first  # a hit returns the memoised column


# ----------------------------------------------------------------------
# in-place updates
# ----------------------------------------------------------------------
#: Slopes the patched surface is read at: memoised before every update
#: (a stale column would survive it) and re-read after.
_SEEN = (-2.0, -0.5, 0.0, 0.7, 3.0)

_VERTEX_FREE = (
    "y >= 2*x + 1",                  # half-plane
    "y >= x and y <= x + 3",         # slab
)
_SPECIAL = _VERTEX_FREE + (
    "y >= x and x >= 0",                          # wedge: vertex + rays
    "y >= x and y <= x and x >= 0 and x <= 2",    # segment
    "x >= 1 and x <= 1 and y >= 2 and y <= 2",    # point
)


def _by_tid(surface, values):
    order = np.argsort(surface.tids, kind="stable")
    return surface.tids[order], values[order]


def _assert_matches_rebuild(surface, live, fresh_slope):
    """Every slope's TOP/BOT, compared by tid, equals a from-scratch
    :meth:`DualSurface.from_items` over the live tuples — on the first
    read after an update, on the memoised re-read, and at a slope the
    surface has never seen."""
    rebuilt = DualSurface.from_items(sorted(live.items()))
    for slope in _SEEN + (fresh_slope,):
        for read in ("first", "memoised"):
            for mine, ref in (
                (surface.top_at(slope), rebuilt.top_at(slope)),
                (surface.bot_at(slope), rebuilt.bot_at(slope)),
            ):
                got_tids, got = _by_tid(surface, mine)
                want_tids, want = _by_tid(rebuilt, ref)
                assert np.array_equal(got_tids, want_tids), read
                assert np.array_equal(got, want), (slope, read)


def _prime(surface):
    for slope in _SEEN:
        surface.top_at(slope)
        surface.bot_at(slope)


def _special_tuples():
    return [parse_tuple(text) for text in _SPECIAL]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_updates_read_back_like_a_rebuild(seed):
    rng = random.Random(seed)
    pool = workload.make_tuples(rng, 40, empty_fraction=0.0)
    pool += _special_tuples()
    live = dict(enumerate(pool[:20]))
    surface = DualSurface.from_items(sorted(live.items()))
    next_tid = len(pool)
    for step in range(40):
        _prime(surface)
        if live and rng.random() < 0.45:
            tid = rng.choice(sorted(live))
            surface.delete(tid)
            del live[tid]
        else:
            t = rng.choice(pool)
            surface.append(DualSurface([next_tid], [t]))
            live[next_tid] = t
            next_tid += 1
        _assert_matches_rebuild(surface, live, rng.uniform(-4.0, 4.0))


@pytest.mark.parametrize("text", _SPECIAL)
def test_each_special_shape_inserts_and_deletes_between_neighbours(text):
    neighbours = workload.make_tuples(random.Random(5), 6, empty_fraction=0.0)
    live = {tid: t for tid, t in enumerate(neighbours)}
    surface = DualSurface.from_items(sorted(live.items()))
    _prime(surface)
    surface.append(DualSurface([99], [parse_tuple(text)]))
    live[99] = parse_tuple(text)
    _assert_matches_rebuild(surface, live, 1.3)
    # Deleting an earlier row re-bases the special tuple's rows.
    surface.delete(2)
    del live[2]
    _assert_matches_rebuild(surface, live, -1.3)
    surface.delete(99)
    del live[99]
    _assert_matches_rebuild(surface, live, 0.25)


def test_delete_first_last_and_only_row():
    tuples = _special_tuples()
    live = dict(enumerate(tuples))
    surface = DualSurface.from_items(sorted(live.items()))
    for tid in (0, len(tuples) - 1):          # first, then last row
        _prime(surface)
        surface.delete(tid)
        del live[tid]
        _assert_matches_rebuild(surface, live, 0.4)
    while len(live) > 1:
        tid = min(live)
        surface.delete(tid)
        del live[tid]
    _prime(surface)
    surface.delete(min(live))                 # the only row
    assert len(surface) == 0
    assert surface.top_at(0.0).size == 0
    assert surface.answer("EXIST", 0.5, 0.0, Theta.GE) == set()
    with pytest.raises(GeometryError):
        surface.delete(0)


def test_insert_into_an_empty_surface():
    surface = DualSurface.from_items([])
    assert surface.top_at(1.0).size == 0
    live = {}
    for tid, t in enumerate(_special_tuples()):
        surface.append(DualSurface([tid], [t]))
        live[tid] = t
        _assert_matches_rebuild(surface, live, -0.8)
    assert surface.answer("EXIST", 0.0, 2.0, Theta.GE) == (
        DualSurface.from_items(live.items()).answer("EXIST", 0.0, 2.0, Theta.GE)
    )


def test_index_rejects_an_unsatisfiable_insert_before_the_surface():
    relation = random_mixed_relation(random.Random(6), 12)
    index = DualIndex(slopes=[-1.0, 0.0, 1.0], dynamic=True)
    index.build(relation)
    surface = index.surface()
    _prime(surface)
    before = surface.top_at(0.7).copy()
    with pytest.raises(IndexError_):
        index.insert(500, parse_tuple("x >= 1 and x <= 0"))
    assert index.surface() is surface
    assert 500 not in surface.tids.tolist()
    assert surface.top_at(0.7) is surface._top_cache[0.7]   # memo kept
    assert np.array_equal(surface.top_at(0.7), before)


def test_index_patches_its_surface_without_rebuilding(monkeypatch):
    rng = random.Random(9)
    relation = random_mixed_relation(rng, 30)
    index = DualIndex(slopes=[-1.0, 0.0, 1.0], dynamic=True)
    index.build(relation)
    live = dict(relation)
    surface = index.surface()
    builds = []
    real = DualSurface.from_items.__func__
    monkeypatch.setattr(
        DualSurface, "from_items",
        classmethod(lambda cls, items: builds.append(1) or real(cls, items)),
    )
    next_tid = max(live) + 1
    for tuple_ in _special_tuples() + workload.make_tuples(
        rng, 6, empty_fraction=0.0
    ):
        index.insert(next_tid, tuple_)
        live[next_tid] = tuple_
        next_tid += 1
        victim = rng.choice(sorted(live))
        index.delete(victim)
        del live[victim]
    assert index.surface() is surface
    assert builds == []
    monkeypatch.undo()
    _assert_matches_rebuild(surface, live, 2.2)
    # A surface rebuilt from the heap agrees with the patched one.
    index.restore_catalog(index.catalog_payload())
    _assert_matches_rebuild(index.surface(), live, 2.2)
    assert index.surface() is not surface
