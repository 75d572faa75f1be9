"""Planner dispatch, exact path, refinement accounting, dynamic updates."""


import random

import pytest

from repro.constraints import GeneralizedRelation, Theta
from repro.core import (
    ALL,
    EXIST,
    DualIndex,
    DualIndexPlanner,
    HalfPlaneQuery,
    SlopeSet,
)
from repro.errors import QueryError
from repro.geometry.predicates import evaluate_relation
from repro.storage import KeyCodec, Pager
from tests.conftest import (
    boundary_intercepts,
    random_bounded_tuple,
    random_mixed_relation,
    scalar_refine,
)

SLOPES = SlopeSet([-1.0, 0.0, 1.0])


@pytest.fixture
def setup(rng):
    relation = GeneralizedRelation(
        [random_bounded_tuple(rng) for _ in range(90)]
    )
    planner = DualIndexPlanner.build(
        relation, SLOPES, pager=Pager(), key_bytes=4
    )
    return planner, relation


class TestDispatch:
    def test_exact_path_for_slope_in_s(self, setup):
        planner, _ = setup
        res = planner.exist(0.0, 0.0, Theta.GE)
        assert res.technique == "exact"

    def test_t2_for_interior(self, setup):
        planner, _ = setup
        res = planner.exist(0.5, 0.0, Theta.GE)
        assert res.technique == "T2"

    def test_t1_for_wrap(self, setup):
        planner, _ = setup
        res = planner.exist(5.0, 0.0, Theta.GE)
        assert res.technique == "T1"

    def test_forced_t1(self, setup):
        planner, _ = setup
        planner.technique = "T1"
        res = planner.exist(0.5, 0.0, Theta.GE)
        assert res.technique == "T1"

    def test_bad_technique(self, setup):
        planner, _ = setup
        with pytest.raises(QueryError):
            DualIndexPlanner(planner.index, technique="T9")

    def test_3d_query_rejected(self, setup):
        planner, _ = setup
        with pytest.raises(QueryError):
            planner.query(HalfPlaneQuery(EXIST, (1.0, 2.0), 0.0, Theta.GE))


class TestExactPath:
    def test_matches_oracle_all_forms(self, setup, rng):
        planner, relation = setup
        for _ in range(80):
            slope = rng.choice(list(SLOPES))
            qtype = rng.choice([ALL, EXIST])
            theta = rng.choice([Theta.GE, Theta.LE])
            b = rng.uniform(-80, 80)
            res = planner.query(HalfPlaneQuery(qtype, slope, b, theta))
            assert res.technique == "exact"
            want = evaluate_relation(relation, qtype, slope, b, theta)
            assert res.ids == want

    def test_accepts_most_without_refinement(self, setup):
        planner, relation = setup
        res = planner.exist(0.0, -1e5, Theta.GE)  # everything qualifies
        assert len(res.ids) == len(relation)
        assert res.accepted_without_refinement >= len(relation) - 2
        # accepted results cost no heap fetches:
        assert res.refinement_pages <= 1

    def test_exact_page_cost_is_descend_plus_sweep(self, setup):
        planner, relation = setup
        res = planner.exist(0.0, 1e5, Theta.GE)  # empty result
        assert res.ids == set()
        # one root-to-leaf descent, one leaf, no refinement
        assert res.page_accesses <= planner.index.up[1].height + 1


class TestRefinementAccounting:
    def test_counts_are_consistent(self, setup, rng):
        planner, relation = setup
        for _ in range(30):
            a = rng.uniform(-0.99, 0.99)
            if SLOPES.index_of(a) is not None:
                continue
            res = planner.exist(a, rng.uniform(-50, 50), Theta.GE)
            assert res.candidates >= len(res.ids)
            assert res.false_hits == res.candidates - len(res.ids)
            assert res.refinement_pages <= res.candidates
            assert res.index_accesses == res.page_accesses - res.refinement_pages
            assert res.index_accesses > 0

    def test_io_measured_per_query(self, setup):
        planner, _ = setup
        res1 = planner.exist(0.5, -1e5, Theta.GE)  # T2, everything
        res2 = planner.exist(0.0, 1e7, Theta.GE)   # exact path, nothing
        assert res2.page_accesses < res1.page_accesses
        assert res1.io.logical_reads > 0

    def test_t2_empty_above_still_pays_secondary_sweep(self, setup):
        """Known cost profile of the paper's T2: a query above every key
        still triggers the secondary sweep, because the last leaf's
        handicap aggregates an unbounded assignment range. (The tight-
        handicap ablation A7 addresses this.)"""
        planner, _ = setup
        res = planner.exist(0.5, 1e7, Theta.GE)
        assert res.ids == set()
        assert res.false_hits == res.candidates


class TestBatchedRefinement:
    """Refinement with the batched warm-up equals a scalar per-candidate
    loop on every path, including unbounded and vertex-free candidates
    and intercepts on (and one tolerance off) the candidates' surfaces."""

    @pytest.fixture(scope="class")
    def mixed(self):
        relation = random_mixed_relation(
            random.Random(21), 100, unbounded_fraction=0.3
        )
        planner = DualIndexPlanner.build(
            relation, SLOPES, pager=Pager(), key_bytes=4
        )
        return planner, relation

    @pytest.mark.parametrize(
        "slope, technique, expected",
        [
            (1.0, "T2", "exact"),
            (0.37, "T2", "T2"),
            (-3.0, "T2", "T1"),
            (0.37, "T1", "T1"),
        ],
    )
    def test_matches_scalar_reference(
        self, mixed, monkeypatch, slope, technique, expected
    ):
        from repro.core import planner as planner_module

        planner, relation = mixed
        planner.technique = technique
        tuples = [t for _tid, t in relation]
        checked = 0
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
                    assert got.technique == want.technique == expected
                    assert got.ids == want.ids
                    assert got.false_hits == want.false_hits
                    assert got.refinement_pages == want.refinement_pages
                    assert got.page_accesses == want.page_accesses
                    assert got.ids == evaluate_relation(
                        relation, qtype, slope, intercept, theta
                    )
                    checked += got.candidates - got.accepted_without_refinement
        assert checked > 0


class TestDynamicPlanner:
    def test_insert_delete_query_cycle(self, rng):
        relation = GeneralizedRelation(
            [random_bounded_tuple(rng) for _ in range(40)]
        )
        idx = DualIndex(Pager(), SLOPES, KeyCodec(4), dynamic=True)
        idx.build(relation)
        planner = DualIndexPlanner(idx)
        live = GeneralizedRelation(t for _, t in relation)

        def verify(n=15):
            for _ in range(n):
                qtype = rng.choice([ALL, EXIST])
                theta = rng.choice([Theta.GE, Theta.LE])
                a = rng.uniform(-3, 3)
                b = rng.uniform(-70, 70)
                res = planner.query(HalfPlaneQuery(qtype, a, b, theta))
                want = evaluate_relation(live, qtype, a, b, theta)
                assert res.ids == want, (qtype, theta, a, b)

        verify()
        for _ in range(30):
            t = random_bounded_tuple(rng)
            tid = live.add(t)
            planner.insert(tid, t)
        verify()
        for tid in rng.sample(list(live.ids()), 35):
            live.remove(tid)
            planner.delete(tid)
        verify()
        for tree in idx.up + idx.down:
            tree.check_invariants()

    def test_refresh_handicaps_requires_dynamic(self, setup):
        planner, _ = setup
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            planner.index.refresh_handicaps()

    def test_duplicate_tid_rejected(self, rng):
        idx = DualIndex(Pager(), SLOPES, KeyCodec(4), dynamic=True)
        idx.build(GeneralizedRelation())
        from repro.errors import IndexError_

        t = random_bounded_tuple(rng)
        idx.insert(1, t)
        with pytest.raises(IndexError_):
            idx.insert(1, t)
        idx.delete(1)
        with pytest.raises(IndexError_):
            idx.delete(1)
