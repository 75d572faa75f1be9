"""DualSurface's bounded per-slope memo: eviction never changes a value."""

import random

import numpy as np

from repro.geometry import vectorized
from repro.geometry.vectorized import DualSurface
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
