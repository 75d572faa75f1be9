"""Technique T1 tests: app-query construction and execution."""

import random

import pytest

from repro.constraints import GeneralizedRelation, GeneralizedTuple, Theta
from repro.core import (
    ALL,
    EXIST,
    DualIndex,
    DualIndexPlanner,
    HalfPlaneQuery,
    SlopeSet,
    build_app_queries,
    run_app_query,
    t1_candidates,
)
from repro.errors import QueryError
from repro.geometry.predicates import evaluate_relation, halfplane_constraint
from repro.storage import KeyCodec, Pager
from tests.conftest import (
    random_bounded_tuple,
    random_mixed_relation,
    reference_app_sweep,
)


@pytest.fixture
def index(rng):
    relation = GeneralizedRelation(
        [random_bounded_tuple(rng) for _ in range(80)]
    )
    idx = DualIndex(Pager(), SlopeSet([-1.5, 0.0, 1.5]), KeyCodec(8))
    idx.build(relation)
    return idx, relation


class TestAppQueryConstruction:
    def test_interior_case(self, index):
        idx, _ = index
        q = HalfPlaneQuery(EXIST, 0.7, 2.0, Theta.GE)
        q1, q2 = build_app_queries(idx, q, pivot_x=0.0)
        assert idx.slopes[q1.slope_index] == 0.0
        assert idx.slopes[q2.slope_index] == 1.5
        assert q1.theta is Theta.GE and q2.theta is Theta.GE
        assert q1.query_type == EXIST and q2.query_type == EXIST

    def test_all_becomes_exist_plus_all(self, index):
        idx, _ = index
        q = HalfPlaneQuery(ALL, 0.7, 2.0, Theta.GE)
        q1, q2 = build_app_queries(idx, q)
        assert q1.query_type == EXIST
        assert q2.query_type == ALL

    def test_wrap_above_flips_theta2(self, index):
        idx, _ = index
        q = HalfPlaneQuery(EXIST, 9.0, 2.0, Theta.GE)
        q1, q2 = build_app_queries(idx, q)
        assert idx.slopes[q1.slope_index] == 1.5
        assert idx.slopes[q2.slope_index] == -1.5
        assert q1.theta is Theta.GE
        assert q2.theta is Theta.LE  # Table 1 row 2

    def test_pivot_moves_intercepts(self, index):
        idx, _ = index
        q = HalfPlaneQuery(EXIST, 0.7, 2.0, Theta.GE)
        q1a, _ = build_app_queries(idx, q, pivot_x=0.0)
        q1b, _ = build_app_queries(idx, q, pivot_x=10.0)
        assert q1a.intercept != q1b.intercept
        # both app-lines pass through the pivot on the query line:
        a = q.slope_2d
        for pivot, app in ((0.0, q1a), (10.0, q1b)):
            y_pivot = a * pivot + q.intercept
            s1 = idx.slopes[app.slope_index]
            assert s1 * pivot + app.intercept == pytest.approx(y_pivot)

    def test_exact_slope_rejected(self, index):
        idx, _ = index
        with pytest.raises(QueryError):
            build_app_queries(idx, HalfPlaneQuery(EXIST, 0.0, 1.0, Theta.GE))


class TestCoverage:
    """Correctness requirement: q ⊆ q1 ∪ q2 (every answer is caught)."""

    def test_halfplane_union_covers(self, index):
        idx, _ = index
        rng = random.Random(9)
        for _ in range(300):
            a = rng.uniform(-6, 6)
            if idx.slopes.index_of(a) is not None:
                continue
            theta = rng.choice([Theta.GE, Theta.LE])
            q = HalfPlaneQuery(EXIST, a, rng.uniform(-20, 20), theta)
            q1, q2 = build_app_queries(idx, q, pivot_x=rng.uniform(-10, 10))
            c = halfplane_constraint(a, q.intercept, theta, 2)
            c1 = halfplane_constraint(
                idx.slopes[q1.slope_index], q1.intercept, q1.theta, 2
            )
            c2 = halfplane_constraint(
                idx.slopes[q2.slope_index], q2.intercept, q2.theta, 2
            )
            for _ in range(40):
                p = (rng.uniform(-200, 200), rng.uniform(-200, 200))
                if c.satisfied_by(p):
                    assert c1.satisfied_by(p, 1e-9) or c2.satisfied_by(p, 1e-9)


class TestExecution:
    def test_candidates_superset_of_answer(self, index):
        idx, relation = index
        rng = random.Random(10)
        for _ in range(60):
            a = rng.uniform(-5, 5)
            if idx.slopes.index_of(a) is not None:
                continue
            qtype = rng.choice([ALL, EXIST])
            theta = rng.choice([Theta.GE, Theta.LE])
            q = HalfPlaneQuery(qtype, a, rng.uniform(-60, 60), theta)
            rids, _dups = t1_candidates(idx, q)
            got_tids = set(idx.tids_for_rids(rids).tolist())
            want = evaluate_relation(relation, qtype, a, q.intercept, theta)
            assert want <= got_tids, q

    def test_duplicates_counted(self, index):
        idx, relation = index
        # a broad EXIST query makes both app-queries return almost
        # everything: duplicates must show up.
        q = HalfPlaneQuery(EXIST, 0.7, -1e4, Theta.GE)
        _rids, duplicates = t1_candidates(idx, q)
        assert duplicates > 0

    def test_figure_4_correctness(self):
        """Figure 4: two ALL app-queries would miss a tuple that the
        original ALL query contains; the EXIST+ALL combination must not.
        """
        # A wide flat tuple straddling the pivot: contained in the query
        # half-plane but in neither app half-plane alone (Figure 4).
        t = GeneralizedTuple.from_vertices_2d(
            [(-10.0, 2.0), (10.0, 2.0), (10.0, 3.0), (-10.0, 3.0)]
        )
        relation = GeneralizedRelation([t])
        planner = DualIndexPlanner.build(
            relation, SlopeSet([-1.0, 1.0]), key_bytes=8, technique="T1"
        )
        # Query ALL(y >= 0.0x + 1): contains the tuple (min y = 4).
        res = planner.all(0.0, 1.0, Theta.GE)
        assert res.ids == {0}
        # Check the would-be ALL/ALL approximation indeed fails: neither
        # app half-plane alone contains the tuple.
        q1, q2 = build_app_queries(
            planner.index, HalfPlaneQuery(ALL, 0.0, 1.0, Theta.GE)
        )
        from repro.geometry.predicates import all_halfplane

        s1 = planner.index.slopes[q1.slope_index]
        s2 = planner.index.slopes[q2.slope_index]
        contained1 = all_halfplane(t.extension(), s1, q1.intercept, q1.theta)
        contained2 = all_halfplane(t.extension(), s2, q2.intercept, q2.theta)
        assert not (contained1 and contained2)


class TestEndToEnd:
    def test_t1_planner_matches_oracle(self, rng):
        relation = random_mixed_relation(rng, 60, unbounded_fraction=0.2)
        planner = DualIndexPlanner.build(
            relation, SlopeSet([-2.0, -0.5, 0.5, 2.0]),
            key_bytes=4, technique="T1",
        )
        for _ in range(120):
            qtype = rng.choice([ALL, EXIST])
            theta = rng.choice([Theta.GE, Theta.LE])
            a = rng.uniform(-6, 6)
            b = rng.uniform(-80, 80)
            res = planner.query(HalfPlaneQuery(qtype, a, b, theta))
            want = evaluate_relation(relation, qtype, a, b, theta)
            assert res.ids == want, (qtype, theta, a, b, res.technique)


class TestColumnSweepMatchesReferenceWalk:
    """App-queries on cached columns against the per-leaf
    ``sweep_up``/``sweep_down`` walk they replaced."""

    @pytest.mark.parametrize("qtype", [ALL, EXIST])
    @pytest.mark.parametrize("theta", [Theta.GE, Theta.LE])
    def test_app_queries_and_union(self, rng, qtype, theta):
        relation = random_mixed_relation(rng, 150, unbounded_fraction=0.2)
        idx = DualIndex(Pager(page_size=512), SlopeSet([-1.5, 0.0, 1.5]),
                        KeyCodec(4))
        idx.build(relation)
        intercepts = [rng.uniform(-60, 60) for _ in range(20)] + [1e8, -1e8]
        for b in intercepts:
            a = rng.choice([rng.uniform(-5, 5), -3.0, 3.0, 0.7])
            q = HalfPlaneQuery(qtype, a, b, theta)
            reference = []
            for app in build_app_queries(idx, q):
                trees, upward = idx.trees_for(app.query_type, app.theta)
                margin = idx.margin(app.intercept)
                start = app.intercept - margin if upward else app.intercept + margin
                rids, pages = reference_app_sweep(
                    trees[app.slope_index], start, upward
                )
                with idx.pager.measure() as scope:
                    got = run_app_query(idx, app)
                assert sorted(got.tolist()) == sorted(rids), (q, app)
                assert scope.delta.logical_reads == pages, (q, app)
                reference.append(set(rids))
            union, duplicates = t1_candidates(idx, q)
            assert union.tolist() == sorted(reference[0] | reference[1])
            assert duplicates == len(reference[0] & reference[1])

    def test_empty_tree(self):
        idx = DualIndex(Pager(), SlopeSet([-1.5, 0.0, 1.5]), KeyCodec(8))
        idx.build(GeneralizedRelation())
        q = HalfPlaneQuery(EXIST, 0.7, 0.0, Theta.GE)
        with idx.pager.measure() as scope:
            rids, duplicates = t1_candidates(idx, q)
        assert rids.size == 0 and duplicates == 0
        assert scope.delta.logical_reads == 0
