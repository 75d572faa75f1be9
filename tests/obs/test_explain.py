"""Explain-report tests: checked attribution, shard rows, cache outcomes."""

import pytest

from repro.core import DualIndexPlanner, SlopeSet
from repro.core.query import ALL, EXIST, HalfPlaneQuery
from repro.obs.explain import (
    ExplainInvariantError,
    _check_attribution,
    explain,
    render_explain,
    traced_answer,
)
from repro.obs.trace import Span
from repro.workloads import make_relation
from tests.conftest import fan_batch

QUERIES = [
    HalfPlaneQuery(EXIST, 0.5, 2.0, ">="),
    HalfPlaneQuery(ALL, 0.5, -1.0, "<="),
]


@pytest.fixture(scope="module")
def planner():
    return DualIndexPlanner.build(
        make_relation(80, "small", seed=11), SlopeSet.uniform_angles(3)
    )


@pytest.fixture(scope="module")
def sharded():
    from repro.shard import ShardedDualIndex

    engine = ShardedDualIndex.build(
        make_relation(80, "small", seed=11), SlopeSet.uniform_angles(3),
        shards=4,
    )
    yield engine
    engine.close()


class TestBatchAttribution:
    def test_vectorized_batch_attribution_identity(self):
        # The Σ-exclusive == inclusive identity must hold on the
        # vectorized batch path too (explain() raises on violation; the
        # assertions pin the checked totals).
        planner = DualIndexPlanner.build(
            make_relation(120, "small", seed=11),
            SlopeSet.uniform_angles(3),
        )
        report = explain(planner, fan_batch(3, width=2), batch=True)
        assert sum(report.phase_pages.values()) == report.total_pages
        assert report.total_pages > 0


class TestExplain:
    def test_attribution_sums_to_inclusive(self, planner):
        report = explain(planner, QUERIES)
        assert sum(report.phase_pages.values()) == report.total_pages
        assert report.total_pages > 0

    def test_answers_match_untraced(self, planner):
        report = explain(planner, QUERIES)
        for query, res in zip(QUERIES, report.results):
            assert res.ids == planner.query(query).ids

    def test_index_rows_single_engine(self, planner):
        report = explain(planner, QUERIES)
        assert set(report.index_rows) == {planner.index.name}
        row = report.index_rows[planner.index.name]
        assert row["queries"] == len(QUERIES)
        assert row["pages"] == report.total_pages

    def test_descent_heights_recorded(self, planner):
        report = explain(planner, QUERIES)
        assert report.descent_heights
        assert all(h >= 1 for h in report.descent_heights.values())

    def test_sharded_rows_and_invariant(self, sharded):
        report = explain(sharded, QUERIES)
        assert set(report.index_rows) == {f"shard{i}" for i in range(4)}
        assert sum(report.phase_pages.values()) == report.total_pages
        per_shard = sum(
            row["pages"] for row in report.index_rows.values()
        )
        assert per_shard == report.total_pages

    def test_batch_mode_reports_cache(self, planner):
        repeated = QUERIES + [QUERIES[0]]
        report = explain(planner, repeated, batch=True)
        assert report.cache_hits >= 1
        assert len(report.results) == len(repeated)
        assert sum(report.phase_pages.values()) == report.total_pages

    def test_render_contains_checked_total(self, planner):
        text = render_explain(explain(planner, QUERIES))
        assert "(checked)" in text
        assert "phase attribution" in text
        assert "b+-tree descents" in text

    def test_traced_answer_equals_plain(self, planner):
        for query in QUERIES:
            assert traced_answer(planner, query).ids == \
                planner.query(query).ids

    def test_invariant_violation_raises(self):
        # hand-build a broken tree: parent claims fewer pages than a
        # same-token child (impossible for real snapshots)
        root = Span("q")
        root.pager_token = 1
        root.io.logical_reads = 1
        child = Span("fetch")
        child.pager_token = 2  # different token -> added to inclusive
        child.io.logical_reads = 3
        root.children.append(child)
        # corrupt phase map directly
        with pytest.raises(ExplainInvariantError):
            _check_attribution(root, {"q": 1})
