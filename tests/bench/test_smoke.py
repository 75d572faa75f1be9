"""Perf-smoke gate logic tests, plus one run of the workload itself."""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.smoke import check_baseline


def _doc(counters):
    return {"counters": counters}


class TestCheckBaseline:
    def test_within_baseline_passes(self):
        assert check_baseline(_doc({"a": 5.0}), _doc({"a": 5.0})) == []
        assert check_baseline(_doc({"a": 4.0}), _doc({"a": 5.0})) == []

    def test_exceeding_counter_fails(self):
        violations = check_baseline(_doc({"a": 6.0}), _doc({"a": 5.0}))
        assert len(violations) == 1
        assert "exceeds baseline" in violations[0]
        # a zero baseline gates too (no ratio is taken)
        violations = check_baseline(_doc({"a": 2.0}), _doc({"a": 0.0}))
        assert violations == ["a: 2 exceeds baseline 0"]

    def test_missing_counter_fails(self):
        violations = check_baseline(_doc({}), _doc({"a": 5.0}))
        assert violations == ["baseline counter a missing from current run"]

    def test_new_counter_is_not_a_violation(self):
        assert check_baseline(_doc({"a": 1.0, "b": 9.0}), _doc({"a": 5.0})) == []

    def test_violations_sorted_by_key(self):
        violations = check_baseline(
            _doc({"b": 9.0, "a": 9.0}), _doc({"a": 1.0, "b": 1.0})
        )
        assert violations[0].startswith("a:")
        assert violations[1].startswith("b:")


def test_plain_smoke_registers_no_durability_series():
    """Without durable storage no ``wal_*``/``checkpoint_*`` series exist.

    Those series register lazily in the process-global registry the
    first time a WAL-mode disk is created, so an earlier test in this
    process may already have registered them: the workload runs in a
    fresh interpreter, with ``REPRO_DATA_DIR`` unset.
    """
    env = {k: v for k, v in os.environ.items() if k != "REPRO_DATA_DIR"}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "from repro.bench.smoke import run_smoke\n"
        "from repro.obs import get_registry\n"
        "run_smoke(get_registry())\n"
        "print(get_registry().export_prom())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert "smoke_total_pages" in out
    leaked = re.findall(
        r"^(?:# (?:HELP|TYPE) )?((?:wal|checkpoint)_\w*)", out, re.MULTILINE)
    assert leaked == []
