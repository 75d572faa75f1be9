"""CLI surface of the serving layer: loadgen."""

import json

import pytest

from repro.bench.harness import dual_planner
from repro.cli import main
from repro.serve.testing import ServerThread

N, SIZE, K = 300, "small", 3


@pytest.fixture(scope="module")
def served():
    planner = dual_planner(N, SIZE, K)
    with ServerThread(engine=planner) as server:
        yield server


def test_loadgen_smoke_workload(served, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "loadgen", "--port", str(served.port), "--workload", "smoke",
        "--mode", "closed", "--requests", "40", "--concurrency", "4",
        "--out", str(out),
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["completed"] == 40
    assert printed["errors"] == 0
    assert json.loads(out.read_text()) == printed


def test_loadgen_open_loop_from_query_file(served, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "EXIST 1.0 0.0 GE\n"
        "ALL -0.5 2.0 LE\n"
    )
    code = main([
        "loadgen", "--port", str(served.port), "--queries", str(queries),
        "--mode", "open", "--rate", "400", "--requests", "30",
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["mode"] == "open"
    assert printed["completed"] + printed["overloaded"] == 30


def test_loadgen_connection_refused_is_an_error(capsys):
    with pytest.raises(OSError):
        main([
            "loadgen", "--port", "1", "--workload", "smoke",
            "--requests", "4",
        ])
