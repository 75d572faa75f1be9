"""HalfPlaneQuery construction: shared slope tuples, exact slope values."""

import math

import pytest

from repro.core.query import HalfPlaneQuery


def test_queries_on_one_slope_share_the_slope_tuple():
    a = HalfPlaneQuery("EXIST", 0.75, 1.0, ">=")
    b = HalfPlaneQuery("ALL", 0.75, -3.0, "<=")
    assert a.slope is b.slope
    assert a.slope == (0.75,)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_slope_keeps_its_sign(zero):
    HalfPlaneQuery("EXIST", -zero, 1.0, ">=")  # the other zero first
    q = HalfPlaneQuery("EXIST", zero, 1.0, ">=")
    assert math.copysign(1.0, q.slope_2d) == math.copysign(1.0, zero)


def test_queries_have_no_instance_dict():
    q = HalfPlaneQuery("EXIST", 0.5, 2.0, ">=")
    assert not hasattr(q, "__dict__")
    assert q == HalfPlaneQuery("EXIST", 0.5, 2.0, ">=")
    assert hash(q) == hash(HalfPlaneQuery("EXIST", 0.5, 2.0, ">="))
