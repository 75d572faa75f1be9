"""The fig9-medium slope-group fan batch against the exact oracle.

Figure 9's relation (N=2000 medium objects, k=3 slopes) answered as
the 240-query fan (``tests.conftest.fan_batch``): every query is on a
restricted slope, so the batch runs one merged sweep per (slope,
direction, type) group on the columnar B+-tree engine. With the result
cache off, every id set must equal the geometric oracle's (minus the
tuples the index skips as unsatisfiable), and the batch's page bill is
pinned: a change that makes the merged sweeps read more or fewer pages
must say so here.
"""

from repro.bench import harness
from repro.core import DualIndexPlanner, SlopeSet
from repro.exec import BatchExecutor
from repro.geometry.predicates import evaluate_relation
from tests.conftest import fan_batch

FIG9_N, FIG9_SIZE, FIG9_K = 2000, "medium", 3
#: Page accesses of the cache-less fan batch on fig9-medium.
FAN_PAGES = 165


def test_fan_batch_shape():
    queries = fan_batch(2, width=5)
    assert len(queries) == 2 * 5 * 4
    assert {q.query_type for q in queries} == {"ALL", "EXIST"}
    assert len({q.theta for q in queries}) == 2
    keys = [(q.slope, q.query_type, q.theta, q.intercept) for q in queries]
    assert len(set(keys)) == len(keys)


def test_fig9_medium_fan_batch_matches_oracle():
    relation = harness.relation(FIG9_N, FIG9_SIZE)
    planner = DualIndexPlanner.build(
        relation, SlopeSet.uniform_angles(FIG9_K))
    queries = fan_batch(FIG9_K)
    assert len(queries) == 240
    batch = BatchExecutor(planner, cache_size=0).execute(queries)
    skipped = set(planner.index.skipped)
    mismatches = [
        position
        for position, (query, result) in enumerate(zip(queries, batch.results))
        if result.ids != evaluate_relation(
            relation, query.query_type, query.slope_2d, query.intercept,
            query.theta,
        ) - skipped
    ]
    assert mismatches == []
    assert batch.page_accesses == FAN_PAGES
