"""Chrome trace export tests (schema round-trips)."""

import json

from repro.obs import QueryTrace, tracing
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.storage import Pager


def make_pager(pages: int = 4) -> tuple[Pager, list[int]]:
    pager = Pager()
    pids = [pager.allocate() for _ in range(pages)]
    for pid in pids:
        pager.write(pid, bytes([pid % 251]) * pager.page_size)
    pager.cool_down()
    pager.stats.reset()
    pager.buffer.hits = pager.buffer.misses = 0
    return pager, pids


def traced_workload():
    """A small real query trace (planner end-to-end)."""
    from repro.core import DualIndexPlanner, SlopeSet
    from repro.workloads import make_relation

    planner = DualIndexPlanner.build(
        make_relation(60, "small", seed=11), SlopeSet.uniform_angles(3)
    )
    trace = QueryTrace(pager=planner.index.pager)
    with tracing(trace):
        planner.exist(0.5, 2.0)
    return trace


class TestChromeTrace:
    def test_export_validates_against_schema(self):
        doc = chrome_trace(traced_workload())
        assert validate_chrome_trace(doc) == []
        # and survives a JSON round-trip intact
        assert validate_chrome_trace(json.loads(json.dumps(doc))) == []

    def test_one_complete_event_per_span(self):
        trace = traced_workload()
        root = trace.close()
        doc = chrome_trace(root)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == sum(1 for _ in root.walk())
        names = {e["name"] for e in complete}
        assert "query" in names and "fetch" in names

    def test_args_carry_attribution(self):
        root = traced_workload().close()
        doc = chrome_trace(root)
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        total = by_name[root.name]["args"]["pages_inclusive"]
        assert total == root.inclusive_pages()
        exclusive_sum = sum(
            e["args"]["pages_exclusive"] for e in doc["traceEvents"]
            if e["ph"] == "X"
        )
        assert exclusive_sum == total

    def test_multi_pager_spans_get_separate_lanes(self):
        pager_a, pids_a = make_pager()
        pager_b, pids_b = make_pager()
        trace = QueryTrace(pager=pager_a, name="fan")
        with trace.span("query", pager=pager_a):
            pager_a.read(pids_a[0])
            with trace.span("query.shard", pager=pager_b):
                pager_b.read(pids_b[0])
        doc = chrome_trace(trace.close())
        tids = {e["name"]: e["tid"] for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert tids["query"] != tids["query.shard"]

    def test_validator_catches_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_phase = {"traceEvents": [{"ph": "Q"}]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        missing = {"traceEvents": [{"ph": "X", "name": "a"}]}
        assert validate_chrome_trace(missing) != []
        negative = {"traceEvents": [{
            "name": "a", "cat": "a", "ph": "X", "ts": -1.0, "dur": 0.0,
            "pid": 1, "tid": 0, "args": {},
        }]}
        assert any("negative" in p for p in validate_chrome_trace(negative))

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(traced_workload(), str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        assert validate_chrome_trace(on_disk) == []
