"""The differential runner: acceptance demos plus the extended fuzz tier.

The unmarked tests are the checked-in acceptance criteria: a short
deterministic differential run over all query paths with zero
disagreements, and a deliberately injected fault producing a clean typed
error plus a replayable minimised repro JSON. The ``fuzz``-marked test
is the extended budget for the scheduled CI job
(``pytest -m fuzz``).
"""

import json
import random

import pytest

from repro.core import ALL, EXIST, HalfPlaneQuery
from repro.errors import FaultInjectedError
from repro.verify import (
    FuzzConfig,
    minimize_case,
    replay_repro,
    run_checks,
    run_fault_scenario,
    run_fuzz,
)
from repro.verify import workload
from repro.verify.differential import (
    DEFAULT_SLOPES,
    query_from_json,
    query_to_json,
    tuple_from_json,
    tuple_to_json,
)


class TestRunChecks:
    def test_all_paths_agree_on_adversarial_workload(self):
        rng = random.Random(0xA11)
        tuples = workload.make_tuples(rng, 12)
        relation = workload.as_relation(tuples)
        queries = workload.random_queries(
            rng, 6, DEFAULT_SLOPES
        ) + workload.boundary_queries(relation, DEFAULT_SLOPES, rng, budget=6)
        assert run_checks(tuples, queries, DEFAULT_SLOPES) == []

    def test_bounded_round_includes_rtree(self):
        rng = random.Random(0xB0B)
        tuples = [workload.bounded_tuple(rng) for _ in range(8)]
        queries = workload.random_queries(rng, 8, DEFAULT_SLOPES)
        assert (
            run_checks(tuples, queries, DEFAULT_SLOPES, include_rtree=True)
            == []
        )

    def test_detects_a_wrong_answer(self, monkeypatch):
        """Sanity: the harness is not vacuously green — sabotage the
        vector path and the divergence must be reported."""
        from repro.geometry.vectorized import DualSurface

        rng = random.Random(0xBAD)
        tuples = [workload.bounded_tuple(rng) for _ in range(4)]
        queries = [HalfPlaneQuery(EXIST, 0.25, 0.0, ">=")]
        real_answer = DualSurface.answer

        def sabotaged(self, *args, **kwargs):
            ids = real_answer(self, *args, **kwargs)
            return ids - {min(ids)} if ids else {999}

        monkeypatch.setattr(DualSurface, "answer", sabotaged)
        findings = run_checks(
            tuples, queries, DEFAULT_SLOPES, check_invariants=False
        )
        assert any(f["kind"] == "path-divergence" for f in findings)
        assert any(f["path"] == "vector" for f in findings)


class TestSerialization:
    def test_tuple_and_query_roundtrip(self):
        rng = random.Random(5)
        for t in workload.make_tuples(rng, 5):
            back = tuple_from_json(tuple_to_json(t))
            assert back.constraints == t.constraints
        q = HalfPlaneQuery(ALL, -0.5, 3.25, "<=")
        assert query_from_json(query_to_json(q)) == q


class TestMinimization:
    def test_minimize_shrinks_to_the_culprit(self, monkeypatch):
        from repro.geometry.vectorized import DualSurface

        rng = random.Random(0xC0DE)
        tuples = [workload.bounded_tuple(rng) for _ in range(6)]
        queries = [
            HalfPlaneQuery(EXIST, 0.25, 0.0, ">="),
            HalfPlaneQuery(ALL, 0.25, 0.0, ">="),
            HalfPlaneQuery(EXIST, -0.75, 1.0, "<="),
        ]
        real_answer = DualSurface.answer

        def sabotaged(self, query_type, slope, intercept, theta):
            ids = real_answer(self, query_type, slope, intercept, theta)
            return ids | {777}  # always wrong when any tuple exists

        monkeypatch.setattr(DualSurface, "answer", sabotaged)
        small_t, small_q = minimize_case(
            tuples, queries, list(DEFAULT_SLOPES), include_rtree=False
        )
        assert len(small_t) == 1
        assert len(small_q) == 1


class TestFuzzAcceptance:
    def test_short_budget_zero_disagreements(self, tmp_path):
        """Acceptance: the differential oracle against all five paths."""
        report = run_fuzz(
            FuzzConfig(
                seed=1234,
                budget_seconds=3.0,
                out_dir=str(tmp_path),
            )
        )
        assert report.ok, report.disagreements
        assert report.rounds >= 2
        assert report.comparisons > 0
        assert report.repro_paths == []

    def test_fault_scenario_writes_replayable_repro(self, tmp_path):
        """Acceptance: injected fault → clean typed error + repro JSON."""
        error, path = run_fault_scenario(seed=9, out_dir=str(tmp_path))
        assert isinstance(error, FaultInjectedError)
        assert error.op == "read"
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["kind"] == "fault"
        assert payload["error"]["type"] == "FaultInjectedError"
        assert payload["tuples"]  # minimised but non-empty
        # Replay: the recorded fault fires again, cleanly.
        assert replay_repro(path) == []

    def test_differential_repro_replay_roundtrip(self, tmp_path):
        """A hand-written differential repro file replays through
        run_checks and (being healthy) reports no findings."""
        rng = random.Random(31)
        tuples = [workload.bounded_tuple(rng) for _ in range(3)]
        payload = {
            "kind": "differential",
            "seed": 31,
            "slopes": list(DEFAULT_SLOPES),
            "rtree": True,
            "tuples": [tuple_to_json(t) for t in tuples],
            "queries": [
                query_to_json(HalfPlaneQuery(EXIST, 0.5, 0.0, ">="))
            ],
            "findings": [],
        }
        path = tmp_path / "diff-manual.json"
        path.write_text(json.dumps(payload))
        assert replay_repro(str(path)) == []


@pytest.mark.fuzz
def test_extended_fuzz_budget(tmp_path):
    """The scheduled-CI budget: minutes, not seconds (pytest -m fuzz)."""
    report = run_fuzz(
        FuzzConfig(seed=0xF022, budget_seconds=120.0, out_dir=str(tmp_path))
    )
    assert report.ok, report.disagreements


@pytest.mark.parametrize("waivers, code", [(0, 0), (1, 0), (2, 0), (10, 0), (11, 1)])
def test_cli_waiver_gate(monkeypatch, capsys, waivers, code):
    """`repro fuzz` fails a clean run whose boundary waivers exceed
    ``WAIVER_BOUND_PER_MILLION`` (10,000: ten per 1,000 queries, about
    one 45 s run)."""
    from repro import verify
    from repro.cli import main
    from repro.verify.differential import FuzzReport

    def fake_run(config):
        return FuzzReport(seed=config.seed, queries=1000, waivers=waivers)

    monkeypatch.setattr(verify, "run_fuzz", fake_run)
    assert main(["fuzz", "--budget", "1s"]) == code
    if code:
        assert "over the bound of 10000" in capsys.readouterr().out
