"""Per-figure experiment drivers (Figures 8, 9, 10 and Table 1).

Each driver regenerates one artefact of the paper's Section 5:

* :func:`figure_8_9` — query page accesses vs relation cardinality for
  technique T2 (k ∈ K) and the R+-tree, one run per selection type, for
  one object-size class (Figure 8 = small, Figure 9 = medium);
* :func:`figure_10` — disk space (pages / bytes) of the structures;
* :func:`table_1_check` — exhaustive verification of the app-query
  operator table.

Drivers return structured rows; the benchmark files render and persist
them with :func:`repro.bench.harness.emit`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench import harness
from repro.core import ALL, EXIST
from repro.core.approx_t1 import build_app_queries
from repro.core.query import HalfPlaneQuery
from repro.core.slope_set import SlopeCase, SlopeSet
from repro.constraints.theta import Theta


@dataclass
class FigureSeries:
    """One line of a figure: structure label → value per N."""

    label: str
    points: dict[int, harness.QueryBatchStats] = field(default_factory=dict)


def figure_8_9(
    size: str,
    query_type: str,
    n_values: tuple[int, ...] | None = None,
    k_values: tuple[int, ...] | None = None,
) -> list[FigureSeries]:
    """Page accesses vs N for T2 (per k) and the R+-tree.

    Figure 8 uses ``size='small'``, Figure 9 ``size='medium'``;
    sub-figure (a) is EXIST, (b) is ALL.
    """
    n_values = n_values or harness.n_values()
    k_values = k_values or harness.k_values()
    series = [FigureSeries(f"T2 k={k}") for k in k_values]
    rplus = FigureSeries("R+-tree")
    for n in n_values:
        for k, line in zip(k_values, series):
            planner = harness.dual_planner(n, size, k)
            queries = harness.queries_for(n, size, query_type, k)
            line.points[n] = harness.QueryBatchStats.measure(
                planner.query, queries
            )
        rp = harness.rplus_planner(n, size)
        queries = harness.queries_for(n, size, query_type, max(k_values))
        rplus.points[n] = harness.QueryBatchStats.measure(rp.query, queries)
    return series + [rplus]


def figure_payload(
    figure: str, size: str, query_type: str, series: list[FigureSeries]
) -> dict:
    """JSON-ready form of a figure's series.

    Every point carries the full :class:`~repro.bench.harness.QueryBatchStats`
    mapping — including the per-phase page columns (descend / sweep /
    fetch) and mean wall time — so downstream tooling (plotting,
    regression diffing) never has to re-parse the ASCII tables.
    """
    return {
        "figure": figure,
        "size": size,
        "query_type": query_type,
        "series": [
            {
                "label": line.label,
                "points": {
                    str(n): stats.to_dict()
                    for n, stats in sorted(line.points.items())
                },
            }
            for line in series
        ],
    }


def render_figure(
    title: str,
    series: list[FigureSeries],
    metric: str = "index_accesses",
) -> str:
    """ASCII rendering of a figure: one row per N, one column per line.

    A ``total_accesses`` figure adds a ``summary_pages`` column (the
    summary-file share of the total) after each line that reads any.
    """
    ns = sorted({n for line in series for n in line.points})
    columns = []
    for line in series:
        columns.append((line, metric, line.label))
        if metric == "total_accesses" and any(
            s.summary_pages for s in line.points.values()
        ):
            label = f"{line.label} (summary_pages)"
            columns.append((line, "summary_pages", label))
    headers = ["N"] + [label for _line, _metric, label in columns]
    rows = []
    for n in ns:
        row = [n]
        for line, name, _label in columns:
            stats = line.points.get(n)
            row.append(getattr(stats, name) if stats else float("nan"))
        rows.append(row)
    return harness.format_table(title, headers, rows)


@dataclass
class SpaceRow:
    """One Figure 10 measurement."""

    n: int
    structure: str
    pages: int
    bytes: int
    ratio_to_rplus: float
    #: Pages of the dual summary file (outside the index pages above).
    summary_pages: int = 0


def figure_10(
    size: str = "small",
    n_values: tuple[int, ...] | None = None,
    k_values: tuple[int, ...] | None = None,
) -> list[SpaceRow]:
    """Disk space of T2's B+-tree forest vs the R+-tree.

    The paper reports T2 ≈ 1.32·k × R+-tree on average over k = 2..5;
    ratios here are per (N, k) so the trend in k is visible.
    """
    n_values = n_values or harness.n_values()
    k_values = k_values or harness.k_values()
    rows: list[SpaceRow] = []
    page_size = 1024
    for n in n_values:
        rp = harness.rplus_planner(n, size)
        rp_pages = rp.tree.page_count
        rows.append(
            SpaceRow(n, "R+-tree", rp_pages, rp_pages * page_size, 1.0)
        )
        for k in k_values:
            space = harness.dual_planner(n, size, k).index.space()
            pages = space.tree_pages
            rows.append(
                SpaceRow(
                    n,
                    f"T2 k={k}",
                    pages,
                    pages * page_size,
                    pages / rp_pages if rp_pages else float("nan"),
                    space.summary_pages,
                )
            )
    return rows


def render_figure_10(rows: list[SpaceRow]) -> str:
    table_rows = [
        [r.n, r.structure, r.pages, r.bytes, round(r.ratio_to_rplus, 2),
         r.summary_pages]
        for r in rows
    ]
    return harness.format_table(
        "Figure 10 — disk space",
        ["N", "structure", "pages", "bytes", "ratio vs R+", "summary pages"],
        table_rows,
    )


def table_1_check(trials: int = 2000, seed: int = 7) -> dict[str, int]:
    """Randomised verification of Table 1 (app-query operators).

    For each random query and slope set, checks that the two app-queries'
    half-planes *cover* the original query half-plane (the correctness
    requirement the operator table encodes), by dense sampling of points
    on and around the query boundary. Returns per-case trial counts;
    raises on any coverage violation.
    """
    from repro.core.dual_index import DualIndex
    from repro.geometry.predicates import halfplane_constraint

    rng = random.Random(seed)
    cases = {case.value: 0 for case in SlopeCase}
    for _ in range(trials):
        k = rng.randint(1, 5)
        values: set[float] = set()
        while len(values) < k:
            values.add(round(rng.uniform(-4, 4), 6))
        slopes = SlopeSet(values)
        a = rng.uniform(-6, 6)
        info = slopes.classify(a)
        if info.case is SlopeCase.EXACT:
            cases[info.case.value] += 1
            continue
        index = DualIndex(slopes=slopes)
        theta = rng.choice([Theta.GE, Theta.LE])
        b = rng.uniform(-10, 10)
        query = HalfPlaneQuery(rng.choice([ALL, EXIST]), a, b, theta)
        q1, q2 = build_app_queries(index, query, pivot_x=rng.uniform(-5, 5))
        c = halfplane_constraint(a, b, theta, 2)
        c1 = halfplane_constraint(
            slopes[q1.slope_index], q1.intercept, q1.theta, 2
        )
        c2 = halfplane_constraint(
            slopes[q2.slope_index], q2.intercept, q2.theta, 2
        )
        for _ in range(60):
            x = rng.uniform(-100, 100)
            y = rng.uniform(-100, 100)
            if c.satisfied_by((x, y)) and not (
                c1.satisfied_by((x, y), 1e-7) or c2.satisfied_by((x, y), 1e-7)
            ):
                raise AssertionError(
                    f"coverage violation at ({x}, {y}) for {query} "
                    f"case={info.case} app1={q1} app2={q2}"
                )
        cases[info.case.value] += 1
    return cases
