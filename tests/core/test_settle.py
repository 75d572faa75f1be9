"""The settle step: summary bounds agree with the oracle, and do work."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.constraints import GeneralizedRelation, GeneralizedTuple, Theta
from repro.constraints.linear import LinearConstraint
from repro.core import ALL, EXIST, DualIndex, DualIndexPlanner, HalfPlaneQuery
from repro.core import SlopeSet
from repro.core.settle import settle, summary_rows, summary_width
from repro.geometry.predicates import (
    all_halfplane,
    evaluate_relation,
    exist_halfplane,
)
from repro.geometry.vectorized import DualSurface
from repro.obs import QueryTrace, tracing
from repro.obs.explain import explain
from repro.storage import KeyCodec, Pager
from repro.workloads import make_relation
from repro.workloads.generator import unbounded_tuple
from tests.conftest import boundary_intercepts, random_bounded_tuple

SLOPES = SlopeSet.uniform_angles(3)


def _segment(rng: random.Random) -> GeneralizedTuple:
    slope = rng.uniform(-3.0, 3.0)
    b = rng.uniform(-40.0, 40.0)
    x0 = rng.uniform(-50.0, 40.0)
    return GeneralizedTuple([
        LinearConstraint.from_slope_intercept(slope, b, ">="),
        LinearConstraint.from_slope_intercept(slope, b, "<="),
        LinearConstraint((1.0, 0.0), -x0, ">="),
        LinearConstraint((1.0, 0.0), -(x0 + rng.uniform(0.5, 10.0)), "<="),
    ])


def _point(rng: random.Random) -> GeneralizedTuple:
    px, py = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
    return GeneralizedTuple([
        LinearConstraint((1.0, 0.0), -px, ">="),
        LinearConstraint((1.0, 0.0), -px, "<="),
        LinearConstraint((0.0, 1.0), -py, ">="),
        LinearConstraint((0.0, 1.0), -py, "<="),
    ])


def _mixed_shapes(rng: random.Random, n: int) -> list[GeneralizedTuple]:
    """Polygons, half-planes, slabs, wedges, segments and points."""
    makers = [random_bounded_tuple] * 3 + [unbounded_tuple, _segment, _point]
    return [rng.choice(makers)(rng) for _ in range(n)]


def _probe_slopes(rng: random.Random) -> list[float]:
    """Interior, anchor-adjacent, wrap and near-vertical slopes."""
    s = list(SLOPES)
    out = [rng.uniform(s[i], s[i + 1]) for i in range(len(s) - 1)]
    for anchor in s:
        out += [anchor + 1e-7, anchor - 1e-4]
    out += [s[-1] + rng.uniform(0.1, 20.0), s[0] - rng.uniform(0.1, 20.0)]
    out += [rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(4, 8)]
    return out


def _intercepts(index, tuples, slope, rng) -> list[float]:
    """On-surface values, ±ORACLE_TOL off them, and ±margin off them."""
    out = boundary_intercepts(tuples, slope, per_side=2)
    for v in boundary_intercepts(rng.sample(tuples, 3), slope, per_side=3):
        if math.isfinite(v):
            out += [v + index.margin(v), v - index.margin(v)]
    return out


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000), key_bytes=st.sampled_from([4, 8]))
def test_settled_candidates_agree_with_oracle(seed, key_bytes):
    """Every definite hit is in the oracle answer and no definite miss
    is, on every shape, slope case and near-boundary intercept."""
    rng = random.Random(seed)
    tuples = _mixed_shapes(rng, 18)
    index = DualIndex(Pager(), SLOPES, KeyCodec(key_bytes))
    index.build(GeneralizedRelation(tuples))
    rids = np.asarray(sorted(index.rid_of.values()), dtype=np.int64)
    rows, _pages = index.summaries.read(rids)
    polys = [tuples[tid].extension() for tid in index.tids_for_rids(rids)]
    settled = 0
    for slope in _probe_slopes(rng):
        for intercept in _intercepts(index, tuples, slope, rng):
            for qtype, predicate in ((ALL, all_halfplane),
                                     (EXIST, exist_halfplane)):
                for theta in (Theta.GE, Theta.LE):
                    query = HalfPlaneQuery(qtype, slope, intercept, theta)
                    hit, miss = settle(rows, SLOPES, query, index.margin_scale)
                    assert not (hit & miss).any()
                    for row in np.flatnonzero(hit | miss).tolist():
                        truth = predicate(polys[row], slope, intercept, theta)
                        assert truth == bool(hit[row]), (query, row)
                    settled += int((hit | miss).sum())
    assert settled > 0


def test_summary_rows_layout():
    """TOP/BOT columns equal the surface values; unbounded and
    vertex-free tuples get NaN rows."""
    rng = random.Random(3)
    tuples = [random_bounded_tuple(rng), _point(rng), _segment(rng),
              GeneralizedTuple([LinearConstraint((0.0, 1.0), 0.0, "<=")])]
    surface = DualSurface.from_items(enumerate(tuples))
    rows = summary_rows(surface, SLOPES)
    k = len(SLOPES)
    assert rows.shape == (4, summary_width(k))
    for i, s in enumerate(SLOPES):
        assert np.array_equal(rows[:3, i], surface.top_at(s)[:3])
        assert np.array_equal(rows[:3, 2 * k + i], surface.bot_at(s)[:3])
    assert np.isnan(rows[3]).all()
    assert np.isfinite(rows[:3]).all()


def test_settle_decides_most_paper_candidates():
    """On the paper's workload the summaries settle the large majority
    of T1/T2 candidates, and answers still equal the oracle."""
    relation = make_relation(400, "small", seed=13)
    planner = DualIndexPlanner.build(relation, SLOPES, pager=Pager())
    rng = random.Random(5)
    candidates = settled = 0
    for _ in range(12):
        slope = rng.choice([rng.uniform(-5.0, 0.6), rng.uniform(1.0, 8.0)])
        query = HalfPlaneQuery(
            rng.choice([ALL, EXIST]), slope, rng.uniform(-40.0, 40.0),
            rng.choice([Theta.GE, Theta.LE]),
        )
        with tracing(QueryTrace()):
            res = planner.query(query)
        counters = res.trace.total_counters()
        assert res.technique in ("T1", "T2")
        assert counters.get("refine.settled_hits", 0) == (
            res.accepted_without_refinement
        )
        candidates += res.candidates
        settled += counters.get("refine.settled_hits", 0)
        settled += counters.get("refine.settled_misses", 0)
        assert res.false_hits == res.candidates - len(res.ids)
        assert 0 < res.summary_pages <= res.refinement_pages
        assert res.ids == evaluate_relation(
            relation, query.query_type, slope, query.intercept, query.theta
        )
    assert settled > 0.85 * candidates


def test_explain_shows_settle_phase():
    planner = DualIndexPlanner.build(
        make_relation(120, "small", seed=11), SLOPES
    )
    report = explain(planner, [HalfPlaneQuery(EXIST, 0.1, 2.0, ">=")])
    assert report.results[0].technique == "T2"
    assert report.phase_pages["settle"] == report.results[0].summary_pages > 0
    assert sum(report.phase_pages.values()) == report.total_pages
