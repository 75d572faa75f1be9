"""CLI tests."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "figures 8a 8b 9a 9b 10" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_query_from_file(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "# two parcels and an unbounded plain\n"
        "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
        "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
        "y <= -10\n"
    )
    code = main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "EXIST",
            "--slope", "0.0",
            "--intercept", "4.0",
            "--theta", "GE",
            "--slopes=-1,0,1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "answers  : 1 of 3 tuples" in out
    assert "tuple 1" in out


def test_query_all_from_file(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text("y <= -10\nx >= 0 and x <= 1 and y >= 0 and y <= 1\n")
    code = main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "ALL",
            "--slope", "0.3",
            "--intercept", "-5.0",
            "--theta", "LE",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "technique:" in out


def test_query_empty_file(tmp_path, capsys):
    tuples = tmp_path / "empty.txt"
    tuples.write_text("# nothing here\n")
    assert main(
        [
            "query",
            "--tuples", str(tuples),
            "--type", "EXIST",
            "--slope", "0",
            "--intercept", "0",
        ]
    ) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


@pytest.mark.parametrize("command", [
    "info", "demo", "figure", "query", "batch", "explain", "smoke",
    "overhead", "fuzz", "save", "open", "serve", "loadgen", "slowlog",
    "top", "tune",
])
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert f"repro {command}" in capsys.readouterr().out


TRACE_TUPLES = (
    "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
    "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
)


def _explain_one(tmp_path, query_line, *extra):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    queries = tmp_path / "queries.txt"
    queries.write_text(query_line + "\n")
    return main(["explain", "--tuples", str(tuples),
                 "--queries", str(queries), *extra])


def test_explain_prints_span_tree(tmp_path, capsys):
    assert _explain_one(tmp_path, "EXIST 1 0 GE") == 0
    out = capsys.readouterr().out
    # span tree with per-phase I/O and timings
    assert "query" in out
    assert "plan" in out
    assert "fetch" in out or "sweep" in out
    assert "ms" in out and "pages" in out and "physical" in out
    assert "technique=" in out


def test_explain_json(tmp_path, capsys):
    import json

    assert _explain_one(tmp_path, "ALL 0.5 -1 LE", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["children"][0]["name"] == "query"
    assert "logical_reads" in doc["io"]


def test_explain_leaves_tracing_disabled(tmp_path, capsys):
    from repro.obs import trace as obs

    _explain_one(tmp_path, "EXIST 1 0 GE")
    capsys.readouterr()
    assert obs.current() is None


def test_smoke_gate_round_trip(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    baseline = tmp_path / "baseline.json"
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline),
         "--update-baseline"]
    ) == 0
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline)]
    ) == 0
    capsys.readouterr()

    import json

    doc = json.loads(baseline.read_text())
    key = next(iter(doc["counters"]))
    doc["counters"][key] -= 1
    baseline.write_text(json.dumps(doc))
    assert main(
        ["smoke", "--out", str(out), "--baseline", str(baseline)]
    ) == 1
    assert "exceeds baseline" in capsys.readouterr().err


def test_smoke_missing_baseline(tmp_path, capsys):
    assert main(
        ["smoke", "--out", str(tmp_path / "o.json"),
         "--baseline", str(tmp_path / "nope.json")]
    ) == 2
    assert "--update-baseline" in capsys.readouterr().err


def test_explain_workload_smoke(capsys):
    assert main(["explain", "--workload", "smoke", "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert "phase attribution" in out
    assert "(checked)" in out
    assert "per-index work" in out


def test_explain_sharded_shows_per_shard_rows(capsys):
    assert main(
        ["explain", "--workload", "smoke", "--count", "1", "--shards", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "shard0" in out and "shard1" in out
    assert "(checked)" in out


def test_explain_from_files_with_artifacts(tmp_path, capsys):
    import json

    from repro.obs.export import validate_chrome_trace

    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.5 2.0 GE\nALL 0.5 -1.0 LE\n")
    chrome = tmp_path / "trace.json"
    code = main(
        [
            "explain",
            "--tuples", str(tuples),
            "--queries", str(queries),
            "--chrome-out", str(chrome),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote chrome trace" in out
    doc = json.loads(chrome.read_text())
    assert validate_chrome_trace(doc) == []


def test_explain_requires_exactly_one_source(tmp_path, capsys):
    assert main(["explain"]) == 2
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(TRACE_TUPLES)
    assert main(
        ["explain", "--workload", "smoke", "--tuples", str(tuples)]
    ) == 2
    assert main(["explain", "--tuples", str(tuples)]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err and "--queries" in err


def test_save_open_round_trip(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "x >= 0 and x <= 2 and y >= 0 and y <= 2\n"
        "x >= 5 and x <= 7 and y >= 5 and y <= 7\n"
    )
    data_dir = tmp_path / "engine"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir),
         "--slopes=-1,0,1"]
    ) == 0
    out = capsys.readouterr().out
    assert "saved planner engine (2 tuples)" in out

    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.0 4.0 GE\n")
    assert main(
        ["open", "--data-dir", str(data_dir), "--queries", str(queries)]
    ) == 0
    out = capsys.readouterr().out
    assert "kind" in out and "planner" in out
    assert "EXIST" in out  # query answers printed


def test_save_open_sharded_json(tmp_path, capsys):
    import json

    tuples = tmp_path / "tuples.txt"
    tuples.write_text(
        "x >= 0 and x <= 1 and y >= 0 and y <= 1\n"
        "x >= 2 and x <= 3 and y >= 2 and y <= 3\n"
        "x >= 4 and x <= 5 and y >= 4 and y <= 5\n"
    )
    data_dir = tmp_path / "fleet"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir),
         "--shards", "2"]
    ) == 0
    capsys.readouterr()
    assert main(["open", "--data-dir", str(data_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sharded"
    assert doc["shards"] == 2
    assert doc["size"] == 3


def test_batch_from_data_dir(tmp_path, capsys):
    tuples = tmp_path / "tuples.txt"
    tuples.write_text("x >= 0 and x <= 2 and y >= 0 and y <= 2\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("EXIST 0.0 4.0 GE\nALL 0.0 -4.0 LE\n")
    data_dir = tmp_path / "engine"
    assert main(
        ["save", "--tuples", str(tuples), "--data-dir", str(data_dir)]
    ) == 0
    capsys.readouterr()
    # no --tuples: the engine is opened from disk instead of rebuilt
    assert main(
        ["batch", "--data-dir", str(data_dir), "--queries", str(queries)]
    ) == 0
    assert "batch    : 2 queries" in capsys.readouterr().out

    assert main(["batch", "--queries", str(queries)]) == 2
    assert "--data-dir" in capsys.readouterr().err
