"""vector-bench: payload shape, oracle gate, and the CI floor wiring."""

import json

from repro.bench import vector_bench
from repro.bench.diff import diff_counters, load_counters


class TestRunBench:
    def test_small_workload_payload(self, tmp_path):
        # Tiny workload: the point here is oracle parity + shape, not timing.
        payload = vector_bench.run_bench(
            n=120, size="small", k=3, seed=5, repeats=1, width=3
        )
        assert payload["mismatches"] == []
        assert payload["workload"]["queries"] == 3 * 3 * 4
        assert payload["page_accesses"] > 0
        assert payload["qps"] > 0
        # The counters section is what bench-diff --mode floor consumes.
        assert set(payload["counters"]) == {"qps_columnar"}
        out = tmp_path / "BENCH_vector.json"
        out.write_text(json.dumps(payload))
        counters = load_counters(str(out))
        assert counters["qps_columnar"] == payload["counters"]["qps_columnar"]

    def test_main_writes_artifact_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = vector_bench.main(
            ["--out", str(out), "--n", "120", "--size", "small",
             "--repeats", "1", "--width", "2"]
        )
        assert code == 0
        assert "answers vs oracle: 0 mismatches" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["mismatches"] == []

    def test_main_exits_one_on_oracle_mismatch(self, tmp_path, monkeypatch):
        # An oracle that disagrees with every answer must trip the gate.
        monkeypatch.setattr(
            vector_bench, "evaluate_relation", lambda *args: {-1}
        )
        code = vector_bench.main(
            ["--out", str(tmp_path / "v.json"), "--n", "60", "--size",
             "small", "--repeats", "1", "--width", "1"]
        )
        assert code == 1

    def test_counters_floor_gate_round_trip(self, tmp_path):
        payload = vector_bench.run_bench(
            n=120, size="small", k=3, seed=5, repeats=1, width=2
        )
        baseline = {"qps_columnar": payload["counters"]["qps_columnar"]}
        # Same run vs itself: no floor regression at any threshold.
        _, regressions = diff_counters(
            baseline, payload["counters"], threshold=0.0, mode="floor"
        )
        assert regressions == []
        # A baseline far above reality trips the floor.
        _, regressions = diff_counters(
            {"qps_columnar": 1e12}, payload["counters"],
            threshold=0.20, mode="floor",
        )
        assert len(regressions) == 1


class TestFanBatch:
    def test_shape_and_validity(self):
        queries = vector_bench.fan_batch(2, width=5)
        assert len(queries) == 2 * 5 * 4
        types = {q.query_type for q in queries}
        thetas = {q.theta for q in queries}
        assert types == {"ALL", "EXIST"}
        assert len(thetas) == 2
        # Each (slope, type, theta) fan has distinct intercepts.
        seen = set()
        for q in queries:
            key = (q.slope, q.query_type, q.theta, q.intercept)
            assert key not in seen
            seen.add(key)
