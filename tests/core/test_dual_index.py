"""DualIndex structure tests: build, keys, handicaps, space."""

import math

import pytest

from repro.constraints import GeneralizedRelation, parse_tuple
from repro.core import DualIndex, SlopeSet
from repro.core.dual_index import (
    AUX_HIGH_NEXT,
    AUX_HIGH_PREV,
    AUX_LOW_NEXT,
    AUX_LOW_PREV,
    NO_HIGH,
    NO_LOW,
)
from repro.errors import IndexError_
from repro.geometry import bot, strip_bot_min, strip_top_max, top
from repro.storage import KeyCodec, Pager
from tests.conftest import random_bounded_tuple


@pytest.fixture
def small_relation(rng):
    return GeneralizedRelation([random_bounded_tuple(rng) for _ in range(60)])


@pytest.fixture
def index(small_relation):
    idx = DualIndex(
        Pager(), SlopeSet([-1.0, 0.0, 1.0]), KeyCodec(8)
    )
    idx.build(small_relation)
    return idx


class TestBuild:
    def test_tree_contents_match_geometry(self, index, small_relation):
        for i, slope in enumerate(index.slopes):
            up_keys = sorted(k for k, _ in index.up[i].items())
            want = sorted(
                top(t.extension(), slope) for _, t in small_relation
            )
            assert up_keys == pytest.approx(want)
            down_keys = sorted(k for k, _ in index.down[i].items())
            want = sorted(
                bot(t.extension(), slope) for _, t in small_relation
            )
            assert down_keys == pytest.approx(want)

    def test_rids_resolve_to_tuples(self, index, small_relation):
        for _k, rid in index.up[0].items():
            tid, t = index.fetch_tuple(rid)
            assert small_relation.get(tid) == t

    def test_skips_unsatisfiable(self):
        r = GeneralizedRelation(
            [
                parse_tuple("x >= 0 and x <= 1 and y >= 0 and y <= 1"),
                parse_tuple("x <= 0 and x >= 1", dimension=2),
            ]
        )
        idx = DualIndex(Pager(), SlopeSet([0.0]))
        idx.build(r)
        assert idx.size == 1
        assert idx.skipped == [1]

    def test_build_twice_rejected(self, index, small_relation):
        with pytest.raises(IndexError_):
            index.build(small_relation)

    def test_3d_relation_rejected(self):
        r = GeneralizedRelation([parse_tuple("x1 + x2 + x3 <= 1")])
        idx = DualIndex(Pager(), SlopeSet([0.0]))
        with pytest.raises(IndexError_):
            idx.build(r)

    def test_unbounded_tuples_indexable(self):
        r = GeneralizedRelation(
            [parse_tuple("y <= 0"), parse_tuple("y >= x and y >= -x")]
        )
        idx = DualIndex(Pager(), SlopeSet([-0.5, 0.5]))
        idx.build(r)
        assert idx.size == 2
        keys = [k for k, _ in idx.up[0].items()]
        assert math.inf in keys  # the cone's TOP at slope -0.5


class TestEntryKeys:
    def test_compute_keys_values(self, rng):
        t = random_bounded_tuple(rng)
        idx = DualIndex(Pager(), SlopeSet([-1.0, 0.0, 1.0]))
        keys = idx.compute_keys(t)
        poly = t.extension()
        for i, slope in enumerate(idx.slopes):
            assert keys.top[i] == pytest.approx(top(poly, slope))
            assert keys.bot[i] == pytest.approx(bot(poly, slope))
        # strips: slope 0 has neighbours both sides at ±0.5 midpoints
        assert keys.assign_top[1]["next"] == pytest.approx(
            strip_top_max(poly, 0.0, 0.5)
        )
        assert keys.assign_top[1]["prev"] == pytest.approx(
            strip_top_max(poly, 0.0, -0.5)
        )
        assert keys.assign_bot[1]["next"] == pytest.approx(
            strip_bot_min(poly, 0.0, 0.5)
        )
        # edge slopes have one-sided strips
        assert keys.assign_top[0]["prev"] is None
        assert keys.assign_top[2]["next"] is None

    def test_empty_tuple_rejected(self):
        idx = DualIndex(Pager(), SlopeSet([0.0]))
        with pytest.raises(IndexError_):
            idx.compute_keys(parse_tuple("x <= 0 and x >= 1", dimension=2))


class TestHandicapAggregates:
    def test_aggregates_cover_assignments(self, index, small_relation):
        """Every tuple's key must be bounded by the aggregate of the leaf
        owning its assignment key — the T2 correctness invariant."""
        for i in range(len(index.slopes)):
            for tree, key_of in (
                (index.up[i], lambda p, s=index.slopes[i]: top(p, s)),
                (index.down[i], lambda p, s=index.slopes[i]: bot(p, s)),
            ):
                # leaf boundaries
                pids = list(tree.leaf_pids())
                leaves = [tree.read_leaf(pid) for pid in pids]
                boundaries = [leaf.keys[0] for leaf in leaves]

                def owner(value):
                    lo, hi = 0, len(boundaries)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if boundaries[mid] <= value:
                            lo = mid + 1
                        else:
                            hi = mid
                    return max(0, lo - 1)

                for _tid, t in small_relation:
                    poly = t.extension()
                    value = tree.quantize(key_of(poly))
                    for side, slot_low, slot_high in (
                        ("prev", AUX_LOW_PREV, AUX_HIGH_PREV),
                        ("next", AUX_LOW_NEXT, AUX_HIGH_NEXT),
                    ):
                        strip = index.slopes.strip(i, side)
                        if strip is None:
                            continue
                        a_top = tree.quantize(strip_top_max(poly, *strip))
                        a_bot = tree.quantize(strip_bot_min(poly, *strip))
                        leaf_low = leaves[owner(a_top)]
                        assert leaf_low.aux[slot_low] <= value
                        leaf_high = leaves[owner(a_bot)]
                        assert leaf_high.aux[slot_high] >= value

    def test_edge_slots_keep_sentinels(self, index):
        # slope 0 (the minimum) has no 'prev' strip: its prev slots stay
        # at the sentinels in every leaf.
        tree = index.up[0]
        for pid in tree.leaf_pids():
            leaf = tree.read_leaf(pid)
            assert leaf.aux[AUX_LOW_PREV] == NO_LOW
            assert leaf.aux[AUX_HIGH_PREV] == NO_HIGH
            assert leaf.handicaps_valid


class TestSpace:
    def test_space_breakdown(self, index):
        space = index.space()
        assert space.tree_pages == sum(
            t.page_count for t in index.up + index.down
        )
        assert space.directory_pages == 0  # static build
        assert space.heap_pages == index.heap.page_count
        assert space.summary_pages == index.summaries.page_count > 0
        assert space.total_pages == (
            space.tree_pages + space.heap_pages + space.summary_pages
        )

    def test_dynamic_mode_has_directories(self, small_relation):
        idx = DualIndex(
            Pager(), SlopeSet([-1.0, 0.0, 1.0]), KeyCodec(8), dynamic=True
        )
        idx.build(small_relation)
        assert idx.space().directory_pages > 0

    def test_trees_scale_with_k(self, small_relation):
        pages = []
        for k in (1, 2, 4):
            idx = DualIndex(Pager(), SlopeSet(list(range(k))), KeyCodec(8))
            idx.build(small_relation)
            pages.append(idx.space().tree_pages)
        assert pages[1] == 2 * pages[0]
        assert pages[2] == 4 * pages[0]


class TestRouting:
    def test_trees_for(self, index):
        from repro.constraints.theta import Theta

        assert index.trees_for("ALL", Theta.GE) == (index.down, True)
        assert index.trees_for("ALL", Theta.LE) == (index.up, False)
        assert index.trees_for("EXIST", Theta.GE) == (index.up, True)
        assert index.trees_for("EXIST", Theta.LE) == (index.down, False)

    def test_bad_type(self, index):
        from repro.constraints.theta import Theta
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            index.trees_for("NONE", Theta.GE)
