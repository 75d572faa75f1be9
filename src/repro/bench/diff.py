"""``repro bench-diff``: per-counter deltas between two bench artifacts.

Both inputs are JSON in either of the repo's artifact shapes — a
``MetricsRegistry.collect()`` document (``BENCH_smoke.json``, the smoke
baseline) or a flat ``{"key": number}`` map (legacy ``BENCH_*.json``
summaries). Only numeric scalars are compared; histograms and nested
sections other than ``counters`` are informational and skipped.

The diff reports every changed counter and *gates* on regressions.
Counters are costs (page accesses, false hits): current exceeding
baseline × (1 + threshold) fails, and so does a baseline counter
missing from the current run (the workload silently shrank). New
counters are listed but never fail — adding instrumentation must not
break CI. Exit code 1 on any regression, so the CI perf-smoke job
tracks the page-count trajectory per-PR instead of re-pinning blind.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_counters(path: str) -> dict[str, float]:
    """Numeric counters from either artifact shape (see module doc)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    section = doc.get("counters", doc)
    if not isinstance(section, dict):
        raise ValueError(f"{path}: 'counters' is not an object")
    return {
        key: float(value)
        for key, value in section.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def diff_counters(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float = 0.0,
) -> tuple[list[str], list[str]]:
    """``(report_lines, regressions)`` for two counter maps.

    ``threshold`` is a fractional allowance: 0.05 tolerates a 5% rise
    above baseline before calling it a regression. Improvements and
    within-threshold changes are reported but never gate.
    """
    report: list[str] = []
    regressions: list[str] = []
    for key in sorted(baseline.keys() | current.keys()):
        if key not in current:
            line = f"{key}: {baseline[key]:g} -> MISSING"
            report.append(line)
            regressions.append(line)
        elif key not in baseline:
            report.append(f"{key}: NEW = {current[key]:g}")
        else:
            base, cur = baseline[key], current[key]
            if cur == base:
                continue
            pct = ((cur - base) / base * 100.0) if base else float(0)
            line = (
                f"{key}: {base:g} -> {cur:g} ({cur - base:+g}"
                + (f", {pct:+.1f}%" if base else "")
                + ")"
            )
            report.append(line)
            if cur > base * (1.0 + threshold):
                regressions.append(line)
    return report, regressions


def main(argv: list[str] | None = None) -> int:
    """``repro bench-diff`` entry point. Returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro bench-diff",
        description="diff two bench/smoke JSON artifacts and gate on "
                    "counter regressions",
    )
    parser.add_argument("baseline", help="baseline artifact (JSON)")
    parser.add_argument("current", help="current artifact (JSON)")
    parser.add_argument(
        "--threshold", type=float, default=0.0,
        help="fractional regression allowance per counter "
             "(default 0 = any move past baseline fails)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_counters(args.baseline)
        current = load_counters(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    report, regressions = diff_counters(
        baseline, current, threshold=args.threshold
    )
    unchanged = len(baseline.keys() & current.keys()) - sum(
        1 for line in report if "->" in line and "MISSING" not in line
    )
    if report:
        print("\n".join(report))
    print(
        f"bench-diff: {unchanged} unchanged, {len(report)} changed/new, "
        f"{len(regressions)} regression(s) "
        f"(threshold {args.threshold:.0%})"
    )
    if regressions:
        print("REGRESSIONS:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
