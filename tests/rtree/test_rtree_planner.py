"""RTreePlanner tests: build, dynamic updates, query semantics."""

import random

import pytest

from repro.constraints import GeneralizedRelation, GeneralizedTuple, Theta
from repro.core import ALL, EXIST, HalfPlaneQuery
from repro.errors import QueryError
from repro.geometry.predicates import ORACLE_TOL, evaluate_relation
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.planner import RTreePlanner
from repro.storage import Pager
from tests.conftest import (
    boundary_intercepts,
    random_bounded_tuple,
    random_mixed_relation,
    scalar_refine,
)


@pytest.fixture
def setup(rng):
    relation = GeneralizedRelation(
        [random_bounded_tuple(rng) for _ in range(70)]
    )
    planner = RTreePlanner.build(relation, pager=Pager(), key_bytes=4)
    return planner, relation


class TestBuild:
    def test_pieces_are_tight_after_refined_build(self, setup):
        planner, _ = setup
        assert planner.tree.pieces_are_tight

    def test_skips_unsatisfiable(self, rng):
        from repro.constraints import parse_tuple

        relation = GeneralizedRelation(
            [
                random_bounded_tuple(rng),
                parse_tuple("x <= 0 and x >= 1", dimension=2),
            ]
        )
        planner = RTreePlanner.build(relation)
        assert planner.skipped == [1]

    def test_guttman_variant(self, rng):
        relation = GeneralizedRelation(
            [random_bounded_tuple(rng) for _ in range(40)]
        )
        planner = RTreePlanner.build(relation, tree_cls=GuttmanRTree)
        res = planner.exist(0.0, -1e6, Theta.GE)
        assert res.ids == set(relation.ids())


class TestQueries:
    def test_matches_oracle(self, setup, rng):
        planner, relation = setup
        for _ in range(60):
            qtype = rng.choice([ALL, EXIST])
            theta = rng.choice([Theta.GE, Theta.LE])
            a = rng.uniform(-3, 3)
            b = rng.uniform(-70, 70)
            res = planner.query(HalfPlaneQuery(qtype, a, b, theta))
            want = evaluate_relation(relation, qtype, a, b, theta)
            assert res.ids == want, (qtype, theta, a, b)

    def test_all_never_confirms_free(self, setup):
        planner, relation = setup
        res = planner.all(0.0, -1e6, Theta.GE)
        assert res.ids == set(relation.ids())
        assert res.accepted_without_refinement == 0

    def test_exist_confirms_interior(self, setup):
        planner, relation = setup
        res = planner.exist(0.0, -1e6, Theta.GE)
        assert res.ids == set(relation.ids())
        assert res.accepted_without_refinement > 0


class TestSharedRefinement:
    """The shared refinement (batched warm-up, then the predicates)
    equals a scalar per-candidate loop on the R-tree's candidates and
    the oracle, degenerate (point/segment) tuples and intercepts on
    (and one tolerance off) their surfaces included."""

    @pytest.fixture(scope="class")
    def bounded(self):
        rng = random.Random(5)
        mixed = random_mixed_relation(rng, 90, unbounded_fraction=0.3)
        tuples = [t for _tid, t in mixed if t.extension().is_bounded]
        tuples += [
            GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0)),
            GeneralizedTuple.from_box((0.0, 1.0), (2.0, 1.0)),
        ]
        relation = GeneralizedRelation(tuples)
        return RTreePlanner.build(relation, pager=Pager()), relation

    @pytest.mark.parametrize("slope", [0.0, 0.37, -2.5])
    def test_matches_scalar_reference(self, bounded, monkeypatch, slope):
        from repro.rtree import planner as planner_module

        planner, relation = bounded
        # The degenerate tuples come first so their surfaces are probed.
        tuples = [t for _tid, t in relation][::-1]
        refined = 0
        for intercept in boundary_intercepts(tuples, slope, per_side=2):
            for qtype in (ALL, EXIST):
                for theta in (Theta.GE, Theta.LE):
                    query = HalfPlaneQuery(qtype, slope, intercept, theta)
                    got = planner.query(query)
                    with monkeypatch.context() as patch:
                        patch.setattr(
                            planner_module, "refine_candidates", scalar_refine
                        )
                        want = planner.query(query)
                    assert got.ids == want.ids
                    assert got.false_hits == want.false_hits
                    assert got.refinement_pages == want.refinement_pages
                    assert got.page_accesses == want.page_accesses
                    assert got.ids == evaluate_relation(
                        relation, qtype, slope, intercept, theta
                    )
                    refined += got.candidates - got.accepted_without_refinement
        assert refined > 0


@pytest.mark.parametrize("key_bytes", [4, 8])
def test_point_just_inside_oracle_tolerance_is_answered(key_bytes):
    """Regression: the MBR descent test pruned at 1e-9, so a tuple up to
    ORACLE_TOL on the wrong side of the line — an oracle answer — never
    reached refinement."""
    relation = GeneralizedRelation(
        [GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0))]
    )
    planner = RTreePlanner.build(relation, pager=Pager(), key_bytes=key_bytes)
    intercept = 4.0 + ORACLE_TOL / 2
    query = HalfPlaneQuery(EXIST, 0.0, intercept, Theta.GE)
    want = evaluate_relation(relation, EXIST, 0.0, intercept, Theta.GE)
    assert want == {0}
    assert planner.query(query).ids == want


class TestDynamic:
    def test_insert_delete_query(self, setup, rng):
        planner, relation = setup
        extra = {}
        for tid in range(1000, 1020):
            t = random_bounded_tuple(rng)
            extra[tid] = t
            relation_tid = relation.add(t)
            # keep ids aligned between relation and planner
            planner.insert(relation_tid, t)
        res = planner.exist(0.0, -1e6, Theta.GE)
        assert res.ids == set(relation.ids())
        victim = relation.ids()[0]
        relation.remove(victim)
        planner.delete(victim)
        res = planner.exist(0.0, -1e6, Theta.GE)
        assert res.ids == set(relation.ids())

    def test_delete_unknown_rejected(self, setup):
        planner, _ = setup
        with pytest.raises(QueryError):
            planner.delete(987654)

    def test_duplicate_tid_insert_rejected(self):
        """Re-inserting an indexed tid must not orphan its old record: a
        later delete then removes the tuple from every answer."""
        from repro.errors import IndexError_

        box = GeneralizedTuple.from_box((0.0, 0.0), (1.0, 1.0))
        planner = RTreePlanner.build(
            GeneralizedRelation([box, box]), pager=Pager()
        )
        with pytest.raises(IndexError_, match="already indexed"):
            planner.insert(0, GeneralizedTuple.from_box((2.0, 2.0), (3.0, 3.0)))
        assert len(list(planner.heap.scan())) == 2
        assert len(planner.rid_of) == len(planner.tid_of) == 2
        planner.delete(0)
        assert planner.exist(0.0, -1e6, Theta.GE).ids == {1}

    def test_unbounded_insert_rejected(self, setup):
        from repro.constraints import parse_tuple
        from repro.errors import GeometryError

        planner, _ = setup
        with pytest.raises(GeometryError):
            planner.insert(5000, parse_tuple("y <= 0"))
