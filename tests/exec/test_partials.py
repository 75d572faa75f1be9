"""Lean partials path and lazy columnar answers.

``BatchExecutor.execute_partials`` is what every shard of a
``ShardedDualIndex`` runs for a batch: it must be the same computation
as ``execute`` — same answers, same per-query accounting, same batch
page accounting — minus the per-query ``QueryResult`` objects and the
result cache. ``QueryResult.set_lazy_ids`` is the handoff that lets
those columns cross into the merged result objects without set
materialisation.
"""

import numpy as np
import pytest

from repro.bench.vector_bench import fan_batch
from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.core.query import QueryResult
from repro.exec import BatchExecutor
from repro.exec.partials import TECH_NAMES, ShardPartials
from repro.shard import ShardedDualIndex
from repro.workloads import make_relation


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


class TestExecutePartialsParity:
    def test_matches_execute(self, planner, queries):
        full = BatchExecutor(planner, cache_size=0).execute(queries)
        parts = BatchExecutor(planner, cache_size=0).execute_partials(queries)
        assert len(parts) == len(queries)
        for j, result in enumerate(full.results):
            ids = set(parts.tid_column(j).tolist())
            if parts.extras[j]:
                ids |= parts.extras[j]
            assert ids == result.ids, queries[j]
            assert TECH_NAMES[parts.technique[j]] == result.technique
            assert parts.candidates[j] == result.candidates
            assert parts.false_hits[j] == result.false_hits
            assert (
                parts.accepted_without_refinement[j]
                == result.accepted_without_refinement
            )
            assert parts.refinement_pages_q[j] == result.refinement_pages

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

    def test_offsets_partition_tid_column(self, planner, queries):
        parts = BatchExecutor(planner, cache_size=0).execute_partials(queries)
        assert parts.offsets[0] == 0
        assert parts.offsets[-1] == parts.tids.size
        assert np.all(np.diff(parts.offsets) >= 0)

    def test_empty_batch(self, planner):
        parts = BatchExecutor(planner, cache_size=0).execute_partials([])
        assert len(parts) == 0
        assert parts.tids.size == 0


class TestShardedBatch:
    def test_matches_unsharded(self, planner, queries):
        relation = make_relation(250, "small", seed=7)
        engine = ShardedDualIndex.build(
            relation, SlopeSet.uniform_angles(3), shards=2,
        )
        try:
            batch = engine.query_batch(queries)
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
        assert res.lazy_id_columns() is not None
        assert res.ids == {1, 2, 3, 9}
        # Materialised: columns are gone, count comes from the set.
        assert res.lazy_id_columns() is None
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
        assert res.lazy_id_columns() is not None


class TestShardPartialsContainer:
    def test_tid_column_is_view(self):
        parts = ShardPartials(
            tids=np.array([10, 11, 12], dtype=np.int64),
            offsets=np.array([0, 2, 3], dtype=np.int64),
            extras=[None, None],
            technique=np.zeros(2, dtype=np.uint8),
            candidates=np.zeros(2, dtype=np.int64),
            false_hits=np.zeros(2, dtype=np.int64),
            accepted_without_refinement=np.zeros(2, dtype=np.int64),
            refinement_pages_q=np.zeros(2, dtype=np.int64),
        )
        assert len(parts) == 2
        assert parts.tid_column(0).tolist() == [10, 11]
        assert parts.tid_column(1).tolist() == [12]
        assert parts.tid_column(0).base is parts.tids
