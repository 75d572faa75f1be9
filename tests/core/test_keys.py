"""Vectorized build keys are bit-identical to the scalar path."""

from __future__ import annotations

import random

import pytest

from repro.core import SlopeSet
from repro.core.dual_index import (
    _SIDES,
    DualIndex,
    compute_keys_batch,
    needed_slopes,
)
from repro.workloads import make_relation
from tests.conftest import random_mixed_relation


def _scalar_keys(relation, slopes):
    index = DualIndex(slopes=slopes)
    return {
        tid: (index.compute_keys(t) if t.is_satisfiable() else None)
        for tid, t in relation
    }


def _assert_same_keys(got, want):
    assert got.keys() == want.keys()
    for tid, keys in want.items():
        if keys is None:
            assert got[tid] is None
            continue
        assert got[tid].top == keys.top, tid
        assert got[tid].bot == keys.bot, tid
        assert got[tid].assign_top == keys.assign_top, tid
        assert got[tid].assign_bot == keys.assign_bot, tid


def test_needed_slopes_covers_trees_and_strips():
    slopes = SlopeSet.uniform_angles(4)
    probe = needed_slopes(slopes)
    assert probe[: len(slopes)] == list(slopes)
    for i in range(len(slopes)):
        for side in _SIDES:
            strip = slopes.strip(i, side)
            if strip is not None:
                assert strip[1] in probe
    assert len(probe) == len(set(probe))


@pytest.mark.parametrize("size", ["small", "medium"])
def test_batch_keys_match_scalar(size):
    relation = make_relation(160, size, seed=31)
    slopes = SlopeSet.uniform_angles(3)
    _assert_same_keys(
        compute_keys_batch(list(relation), slopes)[0],
        _scalar_keys(relation, slopes),
    )


def test_batch_keys_match_scalar_with_unbounded_and_unsat():
    rng = random.Random(77)
    relation = random_mixed_relation(rng, 60, unbounded_fraction=0.4)
    slopes = SlopeSet([-2.0, -0.5, 0.5, 2.0])
    _assert_same_keys(
        compute_keys_batch(list(relation), slopes)[0],
        _scalar_keys(relation, slopes),
    )
