"""d-dimensional extension tests (Section 4.4)."""

import itertools
import math
import random

import pytest

from repro.constraints import (
    GeneralizedRelation,
    GeneralizedTuple,
    LinearConstraint,
    Theta,
)
from repro.core import DDimPlanner, HalfPlaneQuery, SlopePointSet
from repro.core.ddim import AUX_HIGH, AUX_LOW
from repro.errors import QueryError, SlopeSetError
from repro.geometry import dual
from repro.geometry.predicates import evaluate_relation
from repro.storage import Pager
from tests.conftest import reference_handicap_sweep

SLOPE_POINTS = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0)]
DOMAIN = ((-1.5, -1.5), (1.5, 1.5))


def random_box3(rng):
    lows = [rng.uniform(-40, 40) for _ in range(3)]
    highs = [lo + rng.uniform(1, 15) for lo in lows]
    return GeneralizedTuple.from_box(lows, highs)


def random_polytope3(rng):
    t = random_box3(rng)
    normal = tuple(rng.uniform(-1, 1) for _ in range(3))
    cut = LinearConstraint(normal, rng.uniform(-20, 20), "<=")
    return GeneralizedTuple(list(t.constraints) + [cut])


@pytest.fixture(scope="module")
def relation3():
    rng = random.Random(31)
    tuples = []
    while len(tuples) < 70:
        t = random_box3(rng) if rng.random() < 0.6 else random_polytope3(rng)
        if t.is_satisfiable():
            tuples.append(t)
    return GeneralizedRelation(tuples)


@pytest.fixture(scope="module")
def planner3(relation3):
    return DDimPlanner.build(relation3, SLOPE_POINTS, *DOMAIN, key_bytes=4)


class TestSlopePointSet:
    def test_validation(self):
        with pytest.raises(SlopeSetError):
            SlopePointSet([], (-1,), (1,))
        with pytest.raises(SlopeSetError):
            SlopePointSet([(0.0, 0.0), (0.0, 0.0)], (-1, -1), (1, 1))
        with pytest.raises(SlopeSetError):
            SlopePointSet([(0.0, 0.0)], (1, 1), (-1, -1))

    def test_nearest_and_domain(self):
        s = SlopePointSet(SLOPE_POINTS, *DOMAIN)
        assert s.nearest((0.1, 0.1)) == 4
        assert s.nearest((0.9, 0.9)) == 3
        assert s.in_domain((1.2, -1.2))
        assert not s.in_domain((2.0, 0.0))

    def test_cells_partition_domain(self):
        s = SlopePointSet(SLOPE_POINTS, *DOMAIN)
        rng = random.Random(1)
        for _ in range(200):
            q = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            anchor = s.nearest(q)
            cell = s.cell_vertices(anchor)
            assert cell, "cell should be non-empty"
            # q must lie in the hull of the cell vertices (its own cell):
            # verify via the cell inequalities instead of hull math.
            for n, beta in s._cell_ineqs(anchor):
                assert sum(a * b for a, b in zip(n, q)) <= beta + 1e-6

    def test_cell_vertices_within_domain(self):
        s = SlopePointSet(SLOPE_POINTS, *DOMAIN)
        for i in range(len(SLOPE_POINTS)):
            for v in s.cell_vertices(i):
                assert s.in_domain(v)

    def test_1d_slope_space(self):
        # d=2 through the d-dim machinery: slope points on a line.
        s = SlopePointSet([(-1.0,), (0.0,), (2.0,)], (-3.0,), (3.0,))
        assert s.cell_vertices(1) == [(-0.5,), (1.0,)]


class TestDDimQueries:
    def test_matches_oracle(self, planner3, relation3):
        rng = random.Random(8)
        for _ in range(120):
            qtype = rng.choice(["ALL", "EXIST"])
            theta = rng.choice([Theta.GE, Theta.LE])
            slope = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            b = rng.uniform(-120, 120)
            res = planner3.query(HalfPlaneQuery(qtype, slope, b, theta))
            want = evaluate_relation(relation3, qtype, slope, b, theta)
            assert res.ids == want, (qtype, theta, slope, b)

    def test_anchor_slopes_cheapest(self, planner3):
        # Queries at anchor points behave like the restricted technique.
        res = planner3.exist(SLOPE_POINTS[4], 1e6, Theta.GE)
        assert res.ids == set()
        assert res.page_accesses <= 30

    def test_out_of_domain_rejected(self, planner3):
        with pytest.raises(QueryError):
            planner3.exist((5.0, 0.0), 0.0, Theta.GE)

    def test_wrong_dimension_rejected(self, planner3):
        with pytest.raises(QueryError):
            planner3.query(HalfPlaneQuery("EXIST", 0.5, 0.0, Theta.GE))

    def test_space_scales_with_k(self, relation3):
        small = DDimPlanner.build(relation3, SLOPE_POINTS[:2], *DOMAIN)
        large = DDimPlanner.build(relation3, SLOPE_POINTS, *DOMAIN)
        assert large.index.space().tree_pages > small.index.space().tree_pages


class TestDDim2DCrossCheck:
    """The d-dim machinery run at d=2 must agree with the 2-D planner."""

    def test_agrees_with_2d_planner(self, rng):
        from repro.core import DualIndexPlanner, SlopeSet
        from tests.conftest import random_bounded_tuple

        relation = GeneralizedRelation(
            [random_bounded_tuple(rng) for _ in range(50)]
        )
        flat = DualIndexPlanner.build(relation, SlopeSet([-1.0, 0.0, 1.0]))
        deep = DDimPlanner.build(
            relation, [(-1.0,), (0.0,), (1.0,)], (-1.4,), (1.4,)
        )
        for _ in range(60):
            qtype = rng.choice(["ALL", "EXIST"])
            theta = rng.choice([Theta.GE, Theta.LE])
            a = rng.uniform(-1.4, 1.4)
            b = rng.uniform(-70, 70)
            left = flat.query(HalfPlaneQuery(qtype, a, b, theta))
            right = deep.query(HalfPlaneQuery(qtype, (a,), b, theta))
            assert left.ids == right.ids, (qtype, theta, a, b)


def unbounded_tuples3():
    """Half-spaces, a slab and a wedge: TOP and/or BOT are infinite at
    every slope (or outside a cone of slopes)."""
    le, ge = Theta.LE, Theta.GE
    return [
        GeneralizedTuple([LinearConstraint((0.0, 0.0, 1.0), -5.0, le)]),
        GeneralizedTuple([LinearConstraint((0.0, 0.0, 1.0), 8.0, ge)]),
        GeneralizedTuple([LinearConstraint((0.5, -0.3, -1.0), 2.0, ge)]),
        GeneralizedTuple([LinearConstraint((1.0, 0.0, 0.0), -3.0, le),
                          LinearConstraint((1.0, 0.0, 0.0), 1.0, ge)]),
        GeneralizedTuple([LinearConstraint((0.2, 0.4, -1.0), 0.0, le),
                          LinearConstraint((-0.3, 0.1, -1.0), 4.0, le)]),
    ]


@pytest.fixture(scope="module")
def mixed_planner3(relation3):
    """``relation3`` plus unbounded tuples, on small pages so every tree
    spans more than one leaf."""
    tuples = [t for _tid, t in relation3] + unbounded_tuples3()
    relation = GeneralizedRelation(tuples)
    planner = DDimPlanner.build(
        relation, SLOPE_POINTS, *DOMAIN, pager=Pager(page_size=512)
    )
    return planner, relation


def adversarial_slopes3():
    """Slopes on Voronoi cell boundaries (anchor midpoints and the cell
    vertices inside the domain) and at the corners of the declared
    slope domain, each once."""
    cells = SlopePointSet(SLOPE_POINTS, *DOMAIN)
    midpoints = [
        tuple((u + v) / 2 for u, v in zip(p, q))
        for p, q in itertools.combinations(SLOPE_POINTS, 2)
    ]
    inner = [
        v for i in range(len(SLOPE_POINTS)) for v in cells.cell_vertices(i)
        if all(lo < x < hi for x, lo, hi in zip(v, *DOMAIN))
    ]
    corners = list(itertools.product(*zip(*DOMAIN)))
    slopes = {tuple(x + 0.0 for x in v): None  # -0.0 and 0.0 alike
              for v in midpoints + inner + corners}
    return list(slopes)


class TestAdversarialSlopes:
    def test_boundaries_corners_and_unbounded_tuples(self, mixed_planner3):
        """One query per slope, at the support value of a random tuple
        (where Proposition 2.2's comparisons flip), cycling through the
        four query forms and TOP/BOT."""
        planner, relation = mixed_planner3
        slopes = adversarial_slopes3()
        assert (1.5, -1.5) in slopes and (0.0, -1.0) in slopes
        tuples = [t.extension() for _tid, t in relation]
        forms = itertools.cycle(
            itertools.product(["ALL", "EXIST"], [Theta.GE, Theta.LE])
        )
        rng = random.Random(5)
        for n, slope in enumerate(slopes):
            support = (dual.top, dual.bot)[n % 2]
            b = math.inf
            while not math.isfinite(b):
                b = support(rng.choice(tuples), slope)
            qtype, theta = next(forms)
            res = planner.query(HalfPlaneQuery(qtype, slope, b, theta))
            want = evaluate_relation(relation, qtype, slope, b, theta)
            assert res.ids == want, (qtype, theta, slope, b)


class TestColumnSweepMatchesReferenceWalk:
    """``DDimPlanner._t2`` on cached columns against the per-leaf
    ``sweep_up``/``sweep_down`` + ``read_leaf`` walk it replaced."""

    def test_rids_leaves_and_pages(self, mixed_planner3):
        planner, _relation = mixed_planner3
        index = planner.index
        rng = random.Random(12)
        slopes = adversarial_slopes3() + [
            (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(20)
        ]
        secondary = 0
        for slope in slopes:
            for qtype, theta in itertools.product(
                ["ALL", "EXIST"], [Theta.GE, Theta.LE]
            ):
                q = HalfPlaneQuery(qtype, slope, rng.uniform(-90, 90), theta)
                trees, upward = index.trees_for(qtype, theta)
                tree = trees[index.slopes.nearest(slope)]
                rids, primary, second, pages = reference_handicap_sweep(
                    tree, q.intercept, upward,
                    AUX_LOW if upward else AUX_HIGH, index.margin,
                )
                with index.pager.measure() as scope:
                    trace = planner._t2(q)
                assert sorted(trace.candidates.tolist()) == sorted(rids), q
                assert (trace.primary_leaves, trace.secondary_leaves) == \
                    (primary, second), q
                assert scope.delta.logical_reads == pages, q
                secondary += second
        assert secondary > 0
