"""End-to-end integration tests across subsystems.

These exercise the whole stack — parser → geometry → storage → trees →
planner → refinement — the way a downstream application would, including
shared-pager deployments and long mixed workloads.
"""



from repro.constraints import GeneralizedRelation, Theta, parse_tuple
from repro.core import (
    ALL,
    EXIST,
    DualIndex,
    DualIndexPlanner,
    HalfPlaneQuery,
    SlopeSet,
)
from repro.geometry.predicates import evaluate_relation
from repro.intervals import LineQueryIndex
from repro.rtree.planner import RTreePlanner
from repro.storage import KeyCodec, Pager
from tests.conftest import (
    assert_tids_invert_catalog,
    random_bounded_tuple,
    random_mixed_relation,
)


class TestSharedPager:
    """Multiple structures coexisting on one disk, as in a real system."""

    def test_dual_rplus_and_intervals_share_a_disk(self, rng):
        relation = GeneralizedRelation(
            [random_bounded_tuple(rng) for _ in range(80)]
        )
        pager = Pager(buffer_frames=32)
        slopes = SlopeSet([-1.0, 0.0, 1.0])
        dual = DualIndexPlanner.build(relation, slopes, pager=pager)
        rplus = RTreePlanner.build(relation, pager=pager)
        lines = LineQueryIndex.build(relation, slopes, pager=pager)

        for _ in range(25):
            a = rng.uniform(-0.9, 0.9)
            b = rng.uniform(-60, 60)
            theta = rng.choice([Theta.GE, Theta.LE])
            qtype = rng.choice([ALL, EXIST])
            left = dual.query(HalfPlaneQuery(qtype, a, b, theta))
            right = rplus.query(HalfPlaneQuery(qtype, a, b, theta))
            assert left.ids == right.ids
        for s in slopes:
            res = lines.crossing(s, rng.uniform(-40, 40))
            assert res.ids <= set(relation.ids())
        # no page was double-owned
        owned = [
            *(
                pid
                for tree in dual.index.up + dual.index.down
                for pid in tree.owned_pages
            ),
            *rplus.tree.owned_pages,
            *(pid for t in lines.trees for pid in t.owned_pages),
        ]
        assert len(owned) == len(set(owned))


class TestLongMixedWorkload:
    def test_interleaved_updates_and_queries(self, rng):
        slopes = SlopeSet([-1.2, -0.3, 0.3, 1.2])
        index = DualIndex(Pager(), slopes, KeyCodec(4), dynamic=True)
        index.build(GeneralizedRelation())
        planner = DualIndexPlanner(index)
        live = GeneralizedRelation()
        mismatches = 0
        for step in range(220):
            roll = rng.random()
            if roll < 0.45 or len(live) < 5:
                t = random_bounded_tuple(rng)
                tid = live.add(t)
                planner.insert(tid, t)
                assert_tids_invert_catalog(index)
            elif roll < 0.65:
                tid = rng.choice(list(live.ids()))
                live.remove(tid)
                planner.delete(tid)
                assert_tids_invert_catalog(index)
            else:
                qtype = rng.choice([ALL, EXIST])
                theta = rng.choice([Theta.GE, Theta.LE])
                a = rng.uniform(-1.1, 1.1)
                b = rng.uniform(-70, 70)
                res = planner.query(HalfPlaneQuery(qtype, a, b, theta))
                want = evaluate_relation(live, qtype, a, b, theta)
                if res.ids != want:
                    mismatches += 1
        assert mismatches == 0
        for tree in index.up + index.down:
            tree.check_invariants()
        assert index.size == len(live)

    def test_grow_shrink_grow(self, rng):
        slopes = SlopeSet([-0.8, 0.8])
        index = DualIndex(Pager(), slopes, KeyCodec(4), dynamic=True)
        index.build(GeneralizedRelation())
        planner = DualIndexPlanner(index)
        tuples = {}
        for tid in range(60):
            t = random_bounded_tuple(rng)
            tuples[tid] = t
            planner.insert(tid, t)
        for tid in range(60):
            planner.delete(tid)
        assert index.size == 0
        for tid in range(100, 130):
            t = random_bounded_tuple(rng)
            tuples[tid] = t
            planner.insert(tid, t)
        res = planner.exist(0.1, -1e6, Theta.GE)
        assert res.ids == set(range(100, 130))


class TestParserToPlanner:
    def test_textual_workflow(self):
        relation = GeneralizedRelation(
            [
                parse_tuple("y >= 0 and y <= 10 and x >= 0 and x <= 10"),
                parse_tuple("y >= 20 and y <= 30 and x >= 0 and x <= 10"),
                parse_tuple("y >= 2x + 100"),
            ]
        )
        planner = DualIndexPlanner.build(relation, SlopeSet([-1.0, 0.0, 1.0]))
        # y >= 15 separates the two boxes; the unbounded tuple qualifies.
        res = planner.exist(0.0, 15.0, Theta.GE)
        assert res.ids == {1, 2}
        res = planner.all(0.0, 15.0, Theta.LE)
        assert res.ids == {0}

    def test_mixed_relation_with_all_techniques(self, rng):
        relation = random_mixed_relation(rng, 45, unbounded_fraction=0.3)
        planner = DualIndexPlanner.build(
            relation, SlopeSet([-1.5, 0.0, 1.5]), key_bytes=4
        )
        seen = set()
        for a in (-1.5, -0.7, 0.0, 0.9, 1.5, 7.0, -9.0):
            res = planner.query(HalfPlaneQuery(EXIST, a, 0.0, Theta.GE))
            want = evaluate_relation(relation, EXIST, a, 0.0, Theta.GE)
            assert res.ids == want, a
            seen.add(res.technique)
        assert seen == {"exact", "T2", "T1"}
