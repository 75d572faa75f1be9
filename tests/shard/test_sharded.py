"""ShardedDualIndex: partitioning, merging, and sharded ≡ unsharded."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench import harness
from repro.core import (
    ALL,
    EXIST,
    DualIndex,
    DualIndexPlanner,
    HalfPlaneQuery,
    SlopeSet,
)
from repro.core.settle import summary_rows
from repro.errors import IndexError_
from repro.geometry.predicates import evaluate_relation
from repro.geometry.vectorized import DualSurface
from repro.shard import ShardedDualIndex, shard_of
from repro.workloads import make_relation
from tests.conftest import (
    fan_batch,
    random_bounded_tuple,
    random_mixed_relation,
)

SLOPES = SlopeSet([-2.0, -0.5, 0.5, 2.0])


def _random_queries(rng: random.Random, count: int) -> list[HalfPlaneQuery]:
    return [
        HalfPlaneQuery(
            rng.choice(["ALL", "EXIST"]),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-60.0, 60.0),
            rng.choice([">=", "<="]),
        )
        for _ in range(count)
    ]


def test_shard_of_partitions_every_tuple_once():
    ids = list(range(97))
    for shards in (1, 2, 3, 4):
        buckets = [[] for _ in range(shards)]
        for tid in ids:
            buckets[shard_of(tid, shards)].append(tid)
        assert sorted(tid for b in buckets for tid in b) == ids


def test_build_partitions_by_tuple_id():
    relation = make_relation(50, "small", seed=2)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=3)
    try:
        assert engine.shards == 3
        assert engine.size + len(engine.skipped) == len(relation)
        for n, planner in enumerate(engine.planners):
            for tid in planner.index.rid_of:
                assert shard_of(tid, 3) == n
    finally:
        engine.close()


def test_build_rejects_zero_shards():
    relation = make_relation(10, "small", seed=2)
    with pytest.raises(IndexError_):
        ShardedDualIndex.build(relation, SLOPES, shards=0)
    with pytest.raises(IndexError_):
        ShardedDualIndex([])


def test_merged_accounting_sums_shards():
    rng = random.Random(12)
    relation = random_mixed_relation(rng, 40)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=2)
    try:
        query = HalfPlaneQuery("EXIST", 0.3, 1.0, ">=")
        partials = [p.query(query) for p in engine.planners]
        merged = engine.query(query)
        assert merged.ids == set().union(*(p.ids for p in partials))
        assert merged.candidates == sum(p.candidates for p in partials)
        assert merged.refinement_pages == sum(
            p.refinement_pages for p in partials
        )
        space = engine.space()
        assert space.tree_pages == sum(
            p.index.space().tree_pages for p in engine.planners
        )
    finally:
        engine.close()


def test_query_batch_matches_per_query_fanout():
    rng = random.Random(3)
    relation = random_mixed_relation(rng, 36)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=2)
    try:
        queries = _random_queries(rng, 10)
        batch = engine.query_batch(queries)
        assert len(batch.results) == len(queries)
        for query, result in zip(queries, batch.results):
            assert result.ids == engine.query(query).ids
    finally:
        engine.close()


#: Page accesses of the fig9-medium fan + mixed batch per shard count.
#: More shards read more pages: each shard descends its own forest.
FIG9_SHARD_PAGES = {1: 165, 2: 183, 4: 232}


def _fig9_fan_and_mixed_batch() -> list[HalfPlaneQuery]:
    """The 240-query fan plus a mixed batch: six selectivity-calibrated
    interior-slope queries per selection type (the vector technique)
    and two exact-slope queries per predefined slope."""
    queries = fan_batch(3)
    for qtype in (EXIST, ALL):
        queries.extend(harness.queries_for(2000, "medium", qtype, 3, count=6))
    for i, slope in enumerate(SlopeSet.uniform_angles(3)):
        queries.append(HalfPlaneQuery(EXIST, slope, 2.0 + i, ">="))
        queries.append(HalfPlaneQuery(ALL, slope, -2.0 - i, "<="))
    return queries


def test_fig9_medium_sharded_batch_matches_unsharded_planner():
    relation = harness.relation(2000, "medium")
    slopes = SlopeSet.uniform_angles(3)
    queries = _fig9_fan_and_mixed_batch()
    reference = DualIndexPlanner.build(relation, slopes)
    expected = [reference.query(q).ids for q in queries]
    pages = {}
    for shards in FIG9_SHARD_PAGES:
        engine = ShardedDualIndex.build(relation, slopes, shards=shards)
        try:
            # Build every shard's dual surface outside the pinned batch.
            engine.query_batch([HalfPlaneQuery(EXIST, 0.1234, 0.0, ">=")])
            batch = engine.query_batch(queries)
        finally:
            engine.close()
        mismatches = [
            i for i, (result, want) in enumerate(zip(batch.results, expected))
            if result.ids != want
        ]
        assert mismatches == [], (shards, mismatches)
        pages[shards] = batch.page_accesses
    assert pages == FIG9_SHARD_PAGES


def test_updates_route_to_owning_shard():
    rng = random.Random(8)
    relation = random_mixed_relation(rng, 24)
    planners = [
        DualIndexPlanner.build(
            relation.subset(
                [tid for tid, _t in relation if shard_of(tid, 2) == n]
            ),
            SLOPES,
            dynamic=True,
        )
        for n in range(2)
    ]
    engine = ShardedDualIndex(planners)
    try:
        new_tid = max(tid for tid, _t in relation) + 1
        t = random_bounded_tuple(rng)
        engine.insert(new_tid, t)
        owner = engine.planners[shard_of(new_tid, 2)]
        assert new_tid in owner.index.rid_of
        engine.delete(new_tid)
        assert new_tid not in owner.index.rid_of
    finally:
        engine.close()


def test_dynamic_shards_batch_matches_oracle_after_updates():
    """Inserts and deletes leave dirty leaves on dynamic shards; the next
    ``query_batch`` answers like the oracle on the current tuples without
    reading a handicap, and each shard's ``query`` still refreshes its
    dirty leaves lazily before a T1/T2 query."""
    rng = random.Random(31)
    relation = random_mixed_relation(rng, 40)
    planners = [
        DualIndexPlanner.build(
            relation.subset(
                [tid for tid, _t in relation if shard_of(tid, 2) == n]
            ),
            SLOPES,
            dynamic=True,
        )
        for n in range(2)
    ]
    engine = ShardedDualIndex(planners)
    try:
        current = dict(relation)
        next_tid = max(current) + 1
        for tid in range(next_tid, next_tid + 8):
            t = random_bounded_tuple(rng)
            engine.insert(tid, t)
            current[tid] = t
        for tid in sorted(current)[:12:3]:
            engine.delete(tid)
            del current[tid]
        assert any(p._has_dirty_leaves() for p in engine.planners)
        # Exact-slope intercepts on a current tuple's TOP/BOT land in the
        # refinement band, so refined extras must merge too.
        surface = DualSurface.from_items(
            (tid, t) for tid, t in current.items() if t.is_satisfiable()
        )
        queries = _random_queries(rng, 12)
        for slope in SLOPES:
            for values in (surface.top_at(slope), surface.bot_at(slope)):
                for value in values[np.isfinite(values)][:2]:
                    for qtype in ("ALL", "EXIST"):
                        for theta in (">=", "<="):
                            queries.append(HalfPlaneQuery(
                                qtype, slope, float(value), theta))
        batch = engine.query_batch(queries)
        skipped = set(engine.skipped)
        for query, result in zip(queries, batch.results):
            want = evaluate_relation(
                current.items(), query.query_type, query.slope_2d,
                query.intercept, query.theta,
            )
            assert result.ids == want - skipped, query
        for planner in engine.planners:
            planner.query(HalfPlaneQuery("EXIST", 0.3, 0.0, ">="))
            assert not planner._has_dirty_leaves()
    finally:
        engine.close()


def test_parallel_sharded_build_matches_serial_layout():
    """Every shard's leaves (keys, rids, aux) equal those of an index
    staged from scalar :meth:`DualIndex.compute_keys`."""
    slopes = SlopeSet.uniform_angles(3)
    relation = make_relation(90, "small", seed=21)
    engine = ShardedDualIndex.build(
        make_relation(90, "small", seed=21), slopes, shards=2
    )

    def leaves(tree):
        return [
            (v.leaf.keys, v.leaf.rids, v.leaf.aux)
            for v in tree.sweep_up(float("-inf"))
        ]

    try:
        for n, planner in enumerate(engine.planners):
            sub = relation.subset(
                [tid for tid, _t in relation if shard_of(tid, 2) == n]
            )
            staged = DualIndex(slopes=slopes, name=f"shard{n}")
            keys = {
                tid: staged.compute_keys(t) if t.is_satisfiable() else None
                for tid, t in sub
            }
            summaries = summary_rows(
                DualSurface.from_items(
                    (tid, t) for tid, t in sub if keys[tid] is not None
                ),
                slopes,
            )
            staged._build(sub, 0.9, keys, summaries)
            built = planner.index
            for ta, tb in zip(built.up + built.down, staged.up + staged.down):
                assert leaves(ta) == leaves(tb), ta.name
            assert built.assign_extrema == staged.assign_extrema
            assert built.skipped == staged.skipped
    finally:
        engine.close()


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sharded_equals_unsharded_property(seed):
    """sharded(N) ≡ unsharded for N ∈ {1, 2, 4} on mixed workloads."""
    rng = random.Random(seed)
    relation = random_mixed_relation(rng, 12)
    queries = _random_queries(rng, 6)
    reference = DualIndexPlanner.build(relation, SLOPES)
    expected = [frozenset(reference.query(q).ids) for q in queries]
    for shards in (1, 2, 4):
        engine = ShardedDualIndex.build(relation, SLOPES, shards=shards)
        try:
            for query, want in zip(queries, expected):
                assert frozenset(engine.query(query).ids) == want, (
                    shards,
                    query,
                )
            batch = engine.query_batch(queries)
            for result, want in zip(batch.results, expected):
                assert frozenset(result.ids) == want, shards
        finally:
            engine.close()


def test_facade_registry_gets_labeled_shard_series():
    """Every query/batch drains shard-local counters into the facade
    registry as ``shard_*{shard=i}`` series (fleet aggregation)."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    relation = make_relation(80, "small", seed=11)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=4, registry=reg)
    try:
        engine.query(HalfPlaneQuery("EXIST", 0.5, 2.0, ">="))
        counters = reg.collect()["counters"]
        per_shard = {
            key: val for key, val in counters.items()
            if key.startswith("shard_") and "shard=" in key
        }
        shards_seen = {
            key.rsplit("shard=", 1)[1].rstrip("}") for key in per_shard
        }
        assert shards_seen == {"0", "1", "2", "3"}
        pages = [
            val for key, val in per_shard.items()
            if key.startswith("shard_pages{")
        ]
        assert len(pages) == 4 and all(v > 0 for v in pages)
        # the batch path drains through the same funnel
        before = sum(pages)
        engine.query_batch(_random_queries(random.Random(5), 3))
        after = sum(
            val for key, val in reg.collect()["counters"].items()
            if key.startswith("shard_pages{")
        )
        assert after > before
    finally:
        engine.close()


def test_batch_keeps_per_shard_executor_series():
    """The partials path records the executor's ``exec_*``
    counters, so they still drain as ``shard_exec_*{shard=i}``."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    relation = make_relation(60, "small", seed=7)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=2, registry=reg)
    try:
        engine.query_batch(_random_queries(random.Random(4), 5))
        counters = reg.collect()["counters"]
        for shard in ("0", "1"):
            assert counters[f"shard_exec_batches{{shard={shard}}}"] == 1
            assert counters[f"shard_exec_batch_queries{{shard={shard}}}"] == 5
    finally:
        engine.close()


def test_shard_drain_resets_shard_locals():
    """Draining moves counts — a second drain must not double them."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    relation = make_relation(60, "small", seed=7)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=2, registry=reg)
    try:
        engine.query(HalfPlaneQuery("EXIST", 0.0, 1.0, ">="))
        snapshot = dict(reg.collect()["counters"])
        engine._drain_shard_metrics()
        assert reg.collect()["counters"] == snapshot
    finally:
        engine.close()
