"""Batch executor: answers identical to sequential, fewer pages, caching."""

import random

import pytest

from repro.constraints import Theta
from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.errors import QueryError
from repro.exec import BatchExecutor
from repro.storage import Pager
from tests.conftest import random_mixed_relation

SLOPES = [-1.5, 0.0, 1.5]

_STATE = {}


def _setup():
    if _STATE:
        return _STATE
    rng = random.Random(4242)
    relation = random_mixed_relation(rng, 60)
    _STATE["relation"] = relation
    _STATE["planner"] = DualIndexPlanner.build(
        relation, SlopeSet(SLOPES), pager=Pager(buffer_frames=8), key_bytes=4
    )
    return _STATE


def _mixed_batch() -> list[HalfPlaneQuery]:
    """Exact, interior and wrap slopes across all types and operators."""
    queries = []
    for slope in SLOPES + [0.7, -0.4, 8.0]:
        for qtype in (ALL, EXIST):
            for theta in (Theta.GE, Theta.LE):
                queries.append(HalfPlaneQuery(qtype, slope, 3.0, theta))
                queries.append(HalfPlaneQuery(qtype, slope, -11.0, theta))
    return queries


def test_batch_matches_sequential_mixed():
    state = _setup()
    queries = _mixed_batch()
    want = [state["planner"].query(q).ids for q in queries]
    batch = BatchExecutor(state["planner"]).execute(queries)
    assert [r.ids for r in batch.results] == want
    assert batch.exact_groups > 0 and batch.vector_groups > 0


def test_intra_batch_duplicate_is_a_cache_hit():
    state = _setup()
    q = HalfPlaneQuery(EXIST, 0.0, 2.0, ">=")
    batch = BatchExecutor(state["planner"]).execute([q, q, q])
    assert batch.cache_hits == 2
    assert [r.cached for r in batch.results] == [False, True, True]
    assert batch.results[0].ids == batch.results[1].ids == batch.results[2].ids


def test_repeated_batch_served_entirely_from_cache():
    state = _setup()
    queries = _mixed_batch()
    executor = BatchExecutor(state["planner"])
    first = executor.execute(queries)
    replay = executor.execute(queries)
    assert [r.ids for r in replay.results] == [r.ids for r in first.results]
    assert replay.page_accesses == 0
    assert replay.cache_hits == len(queries)
    assert all(r.cached for r in replay.results)


def test_same_slope_batch_uses_fewer_pages_than_sequential():
    state = _setup()
    queries = [
        HalfPlaneQuery(EXIST, SLOPES[1], 1.0 + 0.5 * i, ">=") for i in range(16)
    ]
    seq_pages = sum(state["planner"].query(q).page_accesses for q in queries)
    batch = BatchExecutor(state["planner"]).execute(queries)
    assert [r.ids for r in batch.results] == [
        state["planner"].query(q).ids for q in queries
    ]
    assert batch.exact_groups == 1
    assert batch.page_accesses < seq_pages


def test_insert_invalidates_cached_results():
    rng = random.Random(99)
    relation = random_mixed_relation(rng, 20)
    planner = DualIndexPlanner.build(
        relation, SlopeSet(SLOPES), pager=Pager(), key_bytes=4, dynamic=True
    )
    executor = BatchExecutor(planner)
    q = HalfPlaneQuery(EXIST, 0.0, 0.0, ">=")
    before = executor.execute([q]).results[0].ids

    from repro.constraints import parse_tuple

    new_tid = len(relation)
    planner.insert(new_tid, parse_tuple("y >= 1 and y <= 2 and x >= 0 and x <= 1"))
    after = executor.execute([q])
    assert not after.results[0].cached
    assert after.results[0].ids == before | {new_tid}
    assert executor.cache.invalidations >= 1


def test_rejects_non_2d_queries():
    state = _setup()
    bad = HalfPlaneQuery(EXIST, (1.0, 2.0), 0.0, ">=")
    with pytest.raises(QueryError):
        BatchExecutor(state["planner"]).execute([bad])


def test_empty_batch():
    state = _setup()
    batch = BatchExecutor(state["planner"]).execute([])
    assert batch.results == [] and batch.page_accesses == 0


def test_mixed_batch_of_hits_duplicates_and_fresh_queries():
    """One batch mixing a hit left by an earlier batch, an intra-batch
    duplicate of a miss, and fresh exact and vector queries: only the
    distinct misses execute, and they cost what they cost alone."""
    from repro.obs.metrics import MetricsRegistry

    state = _setup()
    planner = state["planner"]
    earlier = HalfPlaneQuery(EXIST, SLOPES[0], 3.0, ">=")
    exact = HalfPlaneQuery(ALL, SLOPES[1], -11.0, "<=")
    misses = [
        exact,
        HalfPlaneQuery(EXIST, 0.7, 3.0, ">="),
        HalfPlaneQuery(EXIST, SLOPES[2], -11.0, "<="),
        HalfPlaneQuery(ALL, -0.4, 3.0, ">="),
    ]
    batch = [misses[0], earlier, exact, misses[1], misses[2], misses[3]]
    # Build the dual surface first, so neither measured run pays for it.
    BatchExecutor(planner, cache_size=0).execute(misses[1:2])
    alone = BatchExecutor(planner, cache_size=0).execute(misses)

    registry = MetricsRegistry()
    executor = BatchExecutor(planner, registry=registry)
    executor.execute([earlier])
    hits = registry.counter("exec_cache_hits")
    cache_misses = registry.counter("exec_cache_misses")
    hits0, misses0 = hits.value, cache_misses.value
    result = executor.execute(batch)

    assert result.cache_hits == 2
    assert result.cache_misses == 4
    assert [r.cached for r in result.results] == [
        False, True, True, False, False, False,
    ]
    assert hits.value - hits0 == 2
    assert cache_misses.value - misses0 == 4
    assert result.page_accesses == alone.page_accesses > 0
    assert (result.exact_groups, result.vector_groups) == (2, 2)
    assert [r.technique for r in result.results] == [
        "exact", "exact", "exact", "vector", "exact", "vector",
    ]
    for query, res in zip(batch, result.results):
        assert res.ids == planner.query(query).ids, query


def test_metrics_advance_across_registry_reset():
    """Metric handles are bound once; a reset() between two batches
    drops them, and the next batch counts into the fresh registry."""
    from repro.obs.metrics import MetricsRegistry

    planner = _setup()["planner"]
    registry = MetricsRegistry()
    executor = BatchExecutor(planner, registry=registry)
    executor.execute([HalfPlaneQuery(EXIST, 0.0, 2.0, ">=")])
    assert registry.counter("exec_batches").value == 1
    registry.reset()
    executor.execute([
        HalfPlaneQuery(EXIST, 0.0, 3.0, ">="),
        HalfPlaneQuery(ALL, 0.0, 3.0, ">="),
    ])
    assert registry.counter("exec_batches").value == 1
    assert registry.counter("exec_batch_queries").value == 2
    assert registry.counter("exec_cache_misses").value == 2
    executor.execute([HalfPlaneQuery(EXIST, 0.0, 3.0, ">=")])
    assert registry.counter("exec_batches").value == 2
    assert registry.counter("exec_cache_hits").value == 1
