"""bench-diff tests: artifact loading, gating semantics, exit codes."""

import json

import pytest

from repro.bench.diff import diff_counters, load_counters, main


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLoadCounters:
    def test_registry_shape(self, tmp_path):
        path = write_json(tmp_path / "a.json", {
            "counters": {"pages": 10, "queries": 4.0, "flag": True},
            "histograms": {"ms": {"count": 3}},
        })
        assert load_counters(path) == {"pages": 10.0, "queries": 4.0}

    def test_flat_shape(self, tmp_path):
        path = write_json(tmp_path / "a.json", {
            "pages": 10, "label": "fig9", "nested": {"x": 1},
        })
        assert load_counters(path) == {"pages": 10.0}

    def test_rejects_non_object(self, tmp_path):
        path = write_json(tmp_path / "a.json", [1, 2])
        with pytest.raises(ValueError, match="JSON object"):
            load_counters(path)
        path = write_json(tmp_path / "b.json", {"counters": [1]})
        with pytest.raises(ValueError, match="counters"):
            load_counters(path)


class TestDiffCounters:
    def test_identical_is_clean(self):
        report, regressions = diff_counters({"a": 1.0}, {"a": 1.0})
        assert report == [] and regressions == []

    def test_rise_regresses_at_zero_threshold(self):
        report, regressions = diff_counters({"pages": 100.0},
                                            {"pages": 101.0})
        assert len(report) == 1
        assert regressions == report
        assert "+1" in regressions[0]

    def test_threshold_tolerates_small_rise(self):
        _, regressions = diff_counters(
            {"pages": 100.0}, {"pages": 104.0}, threshold=0.05
        )
        assert regressions == []
        _, regressions = diff_counters(
            {"pages": 100.0}, {"pages": 106.0}, threshold=0.05
        )
        assert len(regressions) == 1

    def test_improvement_reported_but_never_gates(self):
        report, regressions = diff_counters({"pages": 100.0},
                                            {"pages": 80.0})
        assert len(report) == 1 and regressions == []

    def test_missing_baseline_counter_regresses(self):
        _, regressions = diff_counters({"pages": 100.0}, {})
        assert len(regressions) == 1
        assert "MISSING" in regressions[0]

    def test_new_counter_is_informational(self):
        report, regressions = diff_counters({}, {"shard_pages{shard=0}": 5})
        assert any("NEW" in line for line in report)
        assert regressions == []

    def test_zero_baseline_does_not_divide(self):
        report, regressions = diff_counters({"errs": 0.0}, {"errs": 2.0})
        assert len(regressions) == 1
        assert "%" not in report[0]


class TestMainExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        base = write_json(tmp_path / "base.json", {"counters": {"a": 1}})
        cur = write_json(tmp_path / "cur.json", {"counters": {"a": 1}})
        assert main([base, cur]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = write_json(tmp_path / "base.json", {"counters": {"a": 1}})
        cur = write_json(tmp_path / "cur.json", {"counters": {"a": 2}})
        assert main([base, cur]) == 1
        assert "REGRESSIONS" in capsys.readouterr().err

    def test_threshold_flag_wires_through(self, tmp_path):
        base = write_json(tmp_path / "base.json", {"a": 100})
        cur = write_json(tmp_path / "cur.json", {"a": 104})
        assert main([base, cur, "--threshold", "0.05"]) == 0
        assert main([base, cur, "--threshold", "0.01"]) == 1

    def test_unreadable_artifact_exits_two(self, tmp_path, capsys):
        base = write_json(tmp_path / "base.json", {"a": 1})
        assert main([base, str(tmp_path / "missing.json")]) == 2
        assert "bench-diff:" in capsys.readouterr().err
