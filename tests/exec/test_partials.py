"""The one batch pipeline and lazy columnar answers.

``BatchExecutor.execute`` and ``execute_partials`` both answer through
the same private pipeline, so their parity holds by construction; these
tests pin that pipeline to the sequential planner instead — same
answers, and for exact-slope queries the same per-query accounting —
and check the batch-scope accounting of the two entry points.
``execute_partials`` is what every shard of a ``ShardedDualIndex``
runs; ``QueryResult.set_lazy_ids`` is the handoff that lets its tid
arrays cross into the merged result objects without set
materialisation.
"""

import random

import numpy as np
import pytest

from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.core.query import QueryResult
from repro.exec import BatchExecutor
from repro.shard import ShardedDualIndex
from repro.workloads import make_relation
from tests.conftest import fan_batch


@pytest.fixture(scope="module")
def planner():
    relation = make_relation(250, "small", seed=7)
    return DualIndexPlanner.build(relation, SlopeSet.uniform_angles(3))


@pytest.fixture(scope="module")
def queries():
    batch = fan_batch(3, width=4)
    # Interior slopes exercise the vector-technique partials too.
    batch += [
        HalfPlaneQuery(EXIST, 0.123, 1.0, ">="),
        HalfPlaneQuery(ALL, -0.77, -2.0, "<="),
        # A duplicate, so partials share the first occurrence's columns.
        batch[0],
    ]
    return batch


@pytest.fixture(scope="module")
def exact_queries(planner):
    """200 queries on the index's own slopes, both types and operators.

    Half the intercepts sit on some tuple's TOP or BOT at the slope, so
    they land in the refinement band and exercise the verify step; the
    rest spread over the populated key range.
    """
    rng = random.Random(11)
    surface = planner.index.surface()
    keys = {}
    for slope in SlopeSet.uniform_angles(3):
        values = np.concatenate((surface.top_at(slope), surface.bot_at(slope)))
        keys[slope] = values[np.isfinite(values)].tolist()
    queries = []
    for _ in range(200):
        slope = rng.choice(sorted(keys))
        if rng.random() < 0.5:
            intercept = rng.choice(keys[slope])
        else:
            intercept = round(rng.uniform(-40.0, 40.0), 3)
        queries.append(HalfPlaneQuery(
            rng.choice((EXIST, ALL)), slope, intercept,
            rng.choice((">=", "<=")),
        ))
    return queries


class TestExecutePartialsParity:
    def test_matches_execute(self, planner, queries, exact_queries):
        """``execute`` answers like ``planner.query``; on exact slopes it
        also reports the planner's per-query accounting."""
        batch = queries + exact_queries
        results = BatchExecutor(planner, cache_size=0).execute(batch).results
        assert len(results) == len(batch)
        exact = 0
        for query, result in zip(batch, results):
            want = planner.query(query)
            assert result.ids == want.ids, query
            if want.technique != "exact":
                assert result.technique == "vector", query
                continue
            exact += 1
            assert result.technique == "exact", query
            assert result.candidates == want.candidates, query
            assert result.false_hits == want.false_hits, query
            assert (
                result.accepted_without_refinement
                == want.accepted_without_refinement
            ), query
            assert result.refinement_pages == want.refinement_pages, query
        assert exact >= len(exact_queries)
        assert any(r.refinement_pages for r in results)

    def test_batch_accounting_matches_execute(self, planner, queries):
        full = BatchExecutor(planner, cache_size=0).execute(queries)
        parts = BatchExecutor(planner, cache_size=0).execute_partials(queries)
        assert parts.io.logical_reads == full.io.logical_reads
        assert parts.io.logical_writes == full.io.logical_writes
        assert parts.exact_groups == full.exact_groups
        assert parts.vector_groups == full.vector_groups
        assert parts.sweep_leaves == full.sweep_leaves
        assert parts.refinement_pages == full.refinement_pages
        assert parts.cache_hits == full.cache_hits
        assert parts.cache_misses == full.cache_misses

    def test_empty_batch(self, planner):
        parts = BatchExecutor(planner, cache_size=0).execute_partials([])
        assert len(parts) == 0
        assert parts.tids == []


class TestShardedBatch:
    def test_matches_unsharded(self, planner, queries):
        relation = make_relation(250, "small", seed=7)
        engine = ShardedDualIndex.build(
            relation, SlopeSet.uniform_angles(3), shards=2,
        )
        try:
            batch = engine.query_batch(queries)
            # One result per position, the in-batch duplicate included.
            assert len(batch.results) == len(queries)
            for q, res in zip(queries, batch.results):
                assert res.ids == planner.query(q).ids, q
        finally:
            engine.close()


class TestShardedProcessFanout:
    """Data directories saved while a sharded engine still chose a
    thread or process fan-out name it in the catalog. Either value must
    open onto the one in-turn shard path and answer like one planner."""

    @pytest.mark.parametrize("fanout", ["thread", "process"])
    def test_matches_unsharded(self, planner, queries, fanout, tmp_path):
        from repro.storage.checkpoint import (
            open_sharded, read_catalog, save_sharded, write_catalog,
        )

        relation = make_relation(250, "small", seed=7)
        path = str(tmp_path / "fleet")
        save_sharded(
            ShardedDualIndex.build(
                relation, SlopeSet.uniform_angles(3), shards=2,
            ),
            path,
        )
        payload, seq, _generation = read_catalog(path)
        write_catalog(path, dict(payload, fanout=fanout), seq)
        engine = open_sharded(path)
        try:
            batch = engine.query_batch(queries)
            for q, res in zip(queries, batch.results):
                assert res.ids == planner.query(q).ids, q
        finally:
            engine.close()
            for p in engine.planners:
                p.index.pager.disk.close()


class TestLazyQueryResult:
    def test_single_column_materialises_once(self):
        res = QueryResult(technique="exact")
        res.set_lazy_ids(np.array([3, 1, 2], dtype=np.int64), {9})
        assert res.answer_count == 4
        ids = res.ids
        assert ids == {1, 2, 3, 9}
        # Materialised once: later reads return the same set object.
        assert res.ids is ids
        assert res.answer_count == 4

    def test_column_list_unions_disjoint_shards(self):
        res = QueryResult()
        res.set_lazy_ids(
            [np.array([1, 3], dtype=np.int64), np.array([2], dtype=np.int64)]
        )
        assert res.answer_count == 3
        assert res.ids == {1, 2, 3}

    def test_setter_clears_lazy_state(self):
        res = QueryResult()
        res.set_lazy_ids(np.array([5], dtype=np.int64))
        res.ids = {7}
        assert res.ids == {7}
        assert res.answer_count == 1

    def test_default_is_eager_empty_set(self):
        res = QueryResult()
        assert res.ids == set()
        assert res.answer_count == 0

    def test_repr_does_not_materialise(self):
        res = QueryResult(technique="exact")
        res.set_lazy_ids(np.array([1, 2], dtype=np.int64))
        assert "|ids|=2" in repr(res)
        # The answer is still the lazy columns: materialising it now
        # yields a fresh set with the right members.
        assert res.answer_count == 2
        assert res.ids == {1, 2}
