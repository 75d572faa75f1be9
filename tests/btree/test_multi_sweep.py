"""Merged multi-key sweeps deliver exactly what per-query sweeps would."""

import random

import pytest

from repro.btree import BPlusTree
from repro.storage import KeyCodec, Pager


def small_tree(key_bytes=8):
    # 256-byte pages force splits early: deep trees from few entries.
    return BPlusTree(Pager(page_size=256), KeyCodec(key_bytes), 0)


@pytest.fixture
def loaded():
    tree = small_tree()
    rng = random.Random(7)
    for i in range(400):
        tree.insert(rng.uniform(-100.0, 100.0), i)
    return tree


STARTS = [-120.0, -33.3, 0.0, 0.0, 42.7, 99.9, 150.0]  # dups + out of range


def test_up_multi_matches_per_query_sweeps(loaded):
    ms = loaded.sweep_up_multi(STARTS)
    for i, start in enumerate(STARTS):
        keys, rids = ms.entries_for(i)
        assert list(zip(keys, rids)) == list(loaded.items_from(start))


def test_down_multi_matches_per_query_sweeps(loaded):
    ms = loaded.sweep_down_multi(STARTS)
    for i, start in enumerate(STARTS):
        keys, rids = ms.entries_for(i)
        assert list(zip(keys, rids)) == list(loaded.items_to(start))


def test_merged_sweep_costs_no_more_than_widest_query(loaded):
    pager = loaded.pager
    with pager.measure() as scope:
        loaded.sweep_up_multi(STARTS)
    merged = scope.delta.logical_reads
    per_query = 0
    for start in STARTS:
        with pager.measure() as scope:
            list(loaded.items_from(start))
        per_query += scope.delta.logical_reads
    assert merged < per_query
    # one descent + the widest sweep: bounded by the cheapest single query
    with pager.measure() as scope:
        list(loaded.items_from(min(STARTS)))
    assert merged <= scope.delta.logical_reads


def test_empty_tree():
    tree = small_tree()
    ms = tree.sweep_up_multi([1.0, 2.0])
    assert ms.keys.size == 0 and ms.offsets == [0, 0] and ms.leaves == 0
    ms = tree.sweep_down_multi([1.0])
    assert ms.entries_for(0) == ([], [])


def test_empty_starts(loaded):
    ms = loaded.sweep_up_multi([])
    assert ms.keys.size == 0 and ms.offsets == []


def test_duplicate_starts_share_offsets(loaded):
    ms = loaded.sweep_up_multi([5.0, 5.0])
    assert ms.offsets[0] == ms.offsets[1]
    assert ms.entries_for(0) == ms.entries_for(1)
