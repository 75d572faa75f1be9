"""Shared experiment harness for the Section 5 reproduction.

Builds (and caches per process) the workloads and index structures, runs
query batches with per-query I/O accounting, and aggregates the metrics
the figures report:

* ``index`` — index-structure page accesses (descent + swept leaves for
  the dual index; visited nodes for the R-tree family). This is the
  metric of the paper's cost theorems and the headline of Figures 8–9.
* ``total`` — end-to-end accesses including page-batched refinement
  record fetches (secondary metric; see EXPERIMENTS.md for discussion).
* candidate/false-hit/duplicate counts.

The paper's full sweep (N up to 12 000, k up to 5, two object classes)
runs when the environment variable ``REPRO_FULL=1`` is set; the default
is a reduced sweep sized for CI.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from repro.constraints.relation import GeneralizedRelation
from repro.core import DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.obs import QueryTrace, tracing
from repro.obs import trace as obs
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.planner import RTreePlanner
from repro.storage import Pager
from repro.workloads import make_queries, make_relation

#: The paper's parameters (Section 5).
PAPER_N_VALUES = (500, 2000, 4000, 8000, 12000)
PAPER_K_VALUES = (2, 3, 4, 5)
QUERIES_PER_TYPE = 6
SELECTIVITY = (0.10, 0.15)
SEED = 1999


def full_run() -> bool:
    """True when the full paper-scale sweep was requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def n_values() -> tuple[int, ...]:
    return PAPER_N_VALUES if full_run() else (500, 2000, 4000)


def k_values() -> tuple[int, ...]:
    return PAPER_K_VALUES if full_run() else (2, 3, 5)


# ----------------------------------------------------------------------
# cached builders
# ----------------------------------------------------------------------
_relations: dict[tuple, GeneralizedRelation] = {}
_duals: dict[tuple, DualIndexPlanner] = {}
_rplus: dict[tuple, RTreePlanner] = {}


def relation(n: int, size: str, seed: int = SEED) -> GeneralizedRelation:
    """Cached Section 5 relation."""
    key = (n, size, seed)
    if key not in _relations:
        _relations[key] = make_relation(n, size, seed=seed)
    return _relations[key]


def dual_planner(
    n: int, size: str, k: int, seed: int = SEED, technique: str = "T2"
) -> DualIndexPlanner:
    """Cached dual-index planner (its own pager, per-structure space)."""
    key = (n, size, k, seed, technique)
    if key not in _duals:
        _duals[key] = DualIndexPlanner.build(
            relation(n, size, seed),
            SlopeSet.uniform_angles(k),
            pager=Pager(),
            key_bytes=4,
            technique=technique,
        )
    return _duals[key]


def rplus_planner(
    n: int, size: str, seed: int = SEED, guttman: bool = False
) -> RTreePlanner:
    """Cached R+-tree planner (own pager)."""
    from repro.rtree.rplus import RPlusTree

    key = (n, size, seed, guttman)
    if key not in _rplus:
        _rplus[key] = RTreePlanner.build(
            relation(n, size, seed),
            pager=Pager(),
            key_bytes=4,
            tree_cls=GuttmanRTree if guttman else RPlusTree,
        )
    return _rplus[key]


def interior_slope_range(k: int, shrink: float = 0.98) -> tuple[float, float]:
    """Query-slope range inside the slope set (T2's interior case)."""
    slopes = SlopeSet.uniform_angles(k)
    return (slopes[0] * shrink, slopes[-1] * shrink)


def queries_for(
    n: int,
    size: str,
    query_type: str,
    k: int,
    count: int = QUERIES_PER_TYPE,
    seed: int = SEED,
) -> list[HalfPlaneQuery]:
    """Selectivity-calibrated queries with interior slopes."""
    return make_queries(
        relation(n, size, seed),
        count,
        query_type,
        seed=seed + 17,
        selectivity=SELECTIVITY,
        slope_range=interior_slope_range(k),
    )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class QueryBatchStats:
    """Aggregated (mean per query) metrics over one query batch.

    The per-phase page columns come from :mod:`repro.obs` traces:
    ``measure`` runs every query under a :class:`~repro.obs.QueryTrace`
    and buckets logical page accesses by the innermost span's phase
    (descend / sweep / fetch — ``plan`` and ``verify`` touch no pages;
    the T1/T2 ``settle`` phase's summary reads are ``summary_pages``).
    When a trace is already active (a caller is recording), the batch
    reuses it and the phase columns stay zero rather than double-charge.
    """

    index_accesses: float = 0.0
    total_accesses: float = 0.0
    candidates: float = 0.0
    false_hits: float = 0.0
    duplicates: float = 0.0
    results: float = 0.0
    #: The part of ``total_accesses`` that read dual summaries (T1/T2
    #: settle step; 0 for structures without a summary file).
    summary_pages: float = 0.0
    descend_pages: float = 0.0
    sweep_pages: float = 0.0
    fetch_pages: float = 0.0
    elapsed_ms: float = 0.0

    @classmethod
    def measure(cls, run: Callable[[HalfPlaneQuery], object], queries) -> "QueryBatchStats":
        rows = []
        phase_rows = []
        for q in queries:
            if obs.current() is None:
                with tracing(QueryTrace(name="bench")):
                    res = run(q)
            else:
                res = run(q)
            rows.append(
                (
                    res.index_accesses,
                    res.page_accesses,
                    res.candidates,
                    res.false_hits,
                    res.duplicates,
                    len(res.ids),
                    res.summary_pages,
                )
            )
            span = getattr(res, "trace", None)
            if span is not None:
                phases = span.phase_pages()
                phase_rows.append(
                    (
                        phases.get("descend", 0),
                        phases.get("sweep", 0),
                        phases.get("fetch", 0),
                        span.elapsed * 1000.0,
                    )
                )
            else:
                phase_rows.append((0, 0, 0, 0.0))
        means = [statistics.mean(col) for col in zip(*rows)]
        phase_means = [statistics.mean(col) for col in zip(*phase_rows)]
        return cls(*means, *phase_means)

    def to_dict(self) -> dict[str, float]:
        """Flat JSON-ready mapping (field name → mean per query)."""
        return asdict(self)


def cross_check(dual: DualIndexPlanner, rplus: RTreePlanner, queries) -> None:
    """Assert both structures return the oracle-identical answer sets."""
    for q in queries:
        left = dual.query(q)
        right = rplus.query(q)
        if left.ids != right.ids:
            raise AssertionError(
                f"answer mismatch on {q}: dual={len(left.ids)} "
                f"rplus={len(right.ids)}"
            )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width ASCII table matching the paper's series layout."""
    widths = [
        max(len(str(headers[i])), max((len(_fmt(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def emit(text: str, save_as: str | None = None) -> None:
    """Print a report through pytest's capture (visible in bench logs)
    and optionally persist it under ``benchmarks/results/``."""
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()
    if save_as:
        with open(os.path.join(results_dir(), save_as), "w") as handle:
            handle.write(text + "\n")


def results_dir() -> str:
    """``benchmarks/results/`` at the repo root (created on demand)."""
    directory = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                             "benchmarks", "results")
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    return directory


def emit_json(payload: dict, save_as: str) -> str:
    """Persist a machine-readable report under ``benchmarks/results/``.

    Returns the path written. The companion of :func:`emit`: every
    figure emits both the ASCII table (for humans reading CI logs) and
    this JSON (for tooling — plotting, regression diffing, perf gates).
    """
    path = os.path.join(results_dir(), save_as)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
