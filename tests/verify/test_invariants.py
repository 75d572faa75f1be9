"""Invariant checkers: pass on healthy structures, fail on corrupted ones."""

import random

import numpy as np
import pytest

from repro.constraints import GeneralizedTuple, parse_tuple
from repro.core import DualIndexPlanner, SlopeSet
from repro.errors import VerificationError
from repro.storage import Pager
from repro.verify.invariants import (
    check_btree,
    check_buffer_pool,
    check_dual_index,
    check_envelopes,
)
from tests.conftest import random_mixed_relation


@pytest.fixture(scope="module")
def planner():
    relation = random_mixed_relation(random.Random(11), 20)
    return DualIndexPlanner.build(
        relation, SlopeSet([-1.0, 0.5, 2.0]), pager=Pager(buffer_frames=8)
    )


class TestHealthyStructures:
    def test_index_and_trees_pass(self, planner):
        check_dual_index(planner.index)
        for tree in planner.index.up + planner.index.down:
            check_btree(tree)

    def test_buffer_pool_passes(self, planner):
        check_buffer_pool(planner.index.pager.buffer)

    def test_envelopes_pass_on_workload_tuples(self):
        rng = random.Random(12)
        for _tid, t in random_mixed_relation(rng, 10):
            check_envelopes(t)
        check_envelopes(GeneralizedTuple.from_box((1.0, 1.0), (1.0, 1.0)))
        check_envelopes(parse_tuple("y >= x and y >= -x"))  # wedge
        check_envelopes(parse_tuple("y >= 1 and y <= 0"))  # empty: no-op


class TestCorruptionDetected:
    def test_broken_leaf_ordering(self, planner):
        tree = planner.index.up[0]
        leaf_id = tree.first_leaf
        leaf = tree.read_leaf(leaf_id)
        original = list(leaf.keys)
        try:
            leaf.keys.reverse()
            tree.write_leaf(leaf_id, leaf)
            with pytest.raises(VerificationError):
                check_btree(tree)
        finally:
            leaf.keys[:] = original
            tree.write_leaf(leaf_id, leaf)
        check_btree(tree)  # restored

    def test_catalog_corruption(self, planner):
        index = planner.index
        tid = next(iter(index.rid_of))
        rid = index.rid_of[tid]
        try:
            index.summaries.set_tids([rid], [tid + 1_000_000])
            with pytest.raises(VerificationError, match="tid column"):
                check_dual_index(index)
        finally:
            index.summaries.set_tids([rid], [tid])
        check_dual_index(index)  # restored

    def test_buffer_pool_negative_pin(self, planner):
        pool = planner.index.pager.buffer
        pool._pins[12345] = -1
        try:
            with pytest.raises(VerificationError):
                check_buffer_pool(pool)
        finally:
            del pool._pins[12345]

    def test_buffer_pool_phantom_dirty_page(self, planner):
        pool = planner.index.pager.buffer
        pool._dirty.add(99999)
        try:
            with pytest.raises(VerificationError):
                check_buffer_pool(pool)
        finally:
            pool._dirty.discard(99999)


def test_stale_summary_detected():
    """A summary out of step with its heap record fails the check."""
    from repro.workloads import make_relation

    planner = DualIndexPlanner.build(
        make_relation(30, "small", seed=2), SlopeSet.uniform_angles(3)
    )
    index = planner.index
    check_dual_index(index)
    rid = next(iter(index.rid_of.values()))
    rows, _pages = index.summaries.read([rid])
    rows[0, 0] += 1.0
    index.summaries._store(index.summaries.slots_for(np.asarray([rid])), rows)
    with pytest.raises(VerificationError, match="summary of tuple"):
        check_dual_index(index)
