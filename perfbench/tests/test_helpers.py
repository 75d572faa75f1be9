"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import inputs  # noqa: E402
from layers import LayerTracer, covered, layer_metrics  # noqa: E402
from repro.core import DualIndexPlanner  # noqa: E402
from repro.workloads.queries import (  # noqa: E402
    actual_selectivity,
    intercept_for_selectivity,
)
from stats import Tally, percentile, tail  # noqa: E402


@pytest.fixture(scope="module")
def relation():
    return inputs.relation(seed=3, n=200)


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 999, 0.99) is None
    assert tail(list(range(1000)), 0.99) == pytest.approx(989.01)
    assert tail([1.0] * 19, 0.5) is None
    assert tail(list(range(20)), 0.5) == pytest.approx(9.5)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.25) == 2.5


def test_failed_frac_counts_every_kind_of_failure():
    tally = Tally(attempted=200)
    tally.fail("mismatch")
    tally.fail("overloaded", 2)
    tally.fail("timeout", 0)
    assert tally.failed == 3
    assert tally.failed_frac == pytest.approx(0.015)
    assert tally.failures == {"mismatch": 1, "overloaded": 2}
    assert Tally().failed_frac == 0.0


def test_zipf_is_deterministic_per_seed_and_skewed():
    first = inputs.Zipf(128, seed=5)
    second = inputs.Zipf(128, seed=5)
    a = [first.draw() for _ in range(500)]
    assert a == [second.draw() for _ in range(500)]
    other = inputs.Zipf(128, seed=6)
    assert a != [other.draw() for _ in range(500)]
    assert all(0 <= x < 128 for x in a)
    hottest = first.order[0]
    counts = {x: a.count(x) for x in set(a)}
    assert counts[hottest] == max(counts.values())


def test_calibration_matches_the_scalar_rule(relation):
    cal = inputs.Calibrator(relation)
    for slope in (-2.0, -0.3, 0.0, 0.7, 4.0):
        for query_type, theta in inputs._KINDS:
            query = cal.query(query_type, slope, theta, 0.12)
            assert query.intercept == intercept_for_selectivity(
                relation, query_type, slope, theta, 0.12)


@pytest.mark.parametrize("stream", ["paper", "cold", "skewed", "batch"])
def test_calibration_lands_in_the_selectivity_band(relation, stream):
    if stream == "paper":
        queries = inputs.paper_block(relation, seed=1)
    elif stream == "cold":
        queries = inputs.cold_stream(relation, 16, seed=1)
    elif stream == "skewed":
        queries = inputs.skewed_pool(relation, 16, seed=1)
    else:
        queries = next(inputs.batch_stream(relation, seed=1, size=16))
    lo, hi = inputs.SELECTIVITY
    slack = 1.0 / len(relation)
    for query in queries:
        assert lo - slack <= actual_selectivity(relation, query) <= hi + slack


def test_streams_are_seeded_and_never_repeat(relation):
    a = inputs.cold_stream(relation, 64, seed=2)
    assert [q.intercept for q in a] == \
        [q.intercept for q in inputs.cold_stream(relation, 64, seed=2)]
    keys = {(q.query_type, q.slope_2d, q.intercept, q.theta) for q in a}
    assert len(keys) == len(a)
    anchors = set(inputs.slope_set())
    assert sum(q.slope_2d in anchors for q in a) == 16


def test_covered_is_the_union_length():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_traced_rows_sum_to_wall_and_patches_are_removed(relation):
    planner = DualIndexPlanner.build(relation, inputs.slope_set())
    original = DualIndexPlanner.query
    queries = inputs.paper_block(relation, seed=1)[:4]
    tracer = LayerTracer(query_probe="query")
    tracer.install()
    try:
        started = time.perf_counter()
        traced = [planner.query(q).ids for q in queries]
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert DualIndexPlanner.query is original
    assert traced == [planner.query(q).ids for q in queries]
    metrics = layer_metrics(tracer.snapshot(), wall, len(queries),
                            len(queries), 0, served=False)
    rows = [v for k, v in metrics.items()
            if k.startswith("self.") and k != "self.wall"]
    assert math.isclose(sum(rows), metrics["self.wall"], rel_tol=1e-9)
    assert metrics["self.geometry.predicates"] > 0
    assert metrics["core.candidates_per_query"] > 0
    assert metrics["self.unattributed"] >= 0


def test_read_write_stream_mix_and_mutation_log(relation):
    from workloads import COMMIT_EVERY, WRITE_EVERY, _ReadWriteStream, _state

    pool = inputs.skewed_pool(relation, 8, seed=1)
    fresh = inputs.fresh_tuples(60, seed=1)
    stream = _ReadWriteStream(pool, inputs.Zipf(len(pool), 1), fresh, 1000)
    kinds = []
    while kinds.count("commit") < 5:
        op = stream.next_op()
        kinds.append(op.kind)
        stream.done(op, {"ok": True, "ids": [], "technique": "vector"})
    mutations = kinds.count("insert") + kinds.count("delete")
    assert mutations == 5 * COMMIT_EVERY
    # The commit after the last mutation is the only request past it.
    assert len(kinds) == mutations * WRITE_EVERY + 1
    assert abs(kinds.count("insert") - kinds.count("delete")) <= 5
    final = _state(dict(relation), stream.log, len(stream.log))
    inserted = {tid for kind, tid, _t in stream.log if kind == "insert"}
    deleted = {tid for kind, tid, _t in stream.log if kind == "delete"}
    assert deleted <= inserted
    assert set(final) == set(dict(relation)) | (inserted - deleted)
    assert stream.committed == len(stream.log)


def test_closed_loop_window_ends_when_the_stream_runs_dry(relation,
                                                           monkeypatch):
    import shutil

    import workloads
    from repro.storage.checkpoint import save_planner
    from served import ServerProcess, closed_loop

    work_dir = os.path.join(os.path.dirname(BENCH), ".perfbench_work",
                            f"test-{os.getpid()}")
    os.makedirs(work_dir)
    server = None
    try:
        data_dir = os.path.join(work_dir, "data")
        save_planner(DualIndexPlanner.build(relation, inputs.slope_set()),
                     data_dir)
        server = ServerProcess(data_dir, work_dir)
        before = server.snapshot()
        monkeypatch.setattr(workloads, "RSS_AT_QUERIES", 3)
        stream = workloads._QueryStream(
            inputs.cold_stream(relation, 8, seed=4), server.request_snapshot)
        loop = closed_loop(server.port, stream, 30.0)
        assert loop.exhausted and loop.completed == 8
        assert loop.window_s < 30.0
        assert loop.errors == {}
        # The mid-window snapshot lands between the two around it.
        mark = server.snapshot_line(stream.marked)
        after = server.snapshot()
        assert before["t"] < mark["t"] < after["t"]
        assert mark["rss_mb"] > 0
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
