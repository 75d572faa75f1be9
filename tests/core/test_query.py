"""HalfPlaneQuery construction: shared slope tuples, exact slope values;
AnswerSet behaving as a set of ids."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.query import AnswerSet, HalfPlaneQuery, QueryResult
from repro.errors import QueryError


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


def test_answer_set_behaves_as_a_set_of_ids():
    ids = AnswerSet([9, 2, 5, 2])
    assert ids == {2, 5, 9} and {2, 5, 9} == ids
    assert ids != {2, 5} and ids == AnswerSet(np.array([5, 9, 2]))
    assert list(ids) == [2, 5, 9]
    assert all(type(tid) is int for tid in ids)
    assert len(ids) == 3 and 5 in ids and 4 not in ids
    assert 5.0 in ids and "5" not in ids and 100 not in ids
    assert ids | {1} == {1, 2, 5, 9} and {1} | ids == {1, 2, 5, 9}
    assert ids | AnswerSet([3]) == {2, 3, 5, 9}
    assert ids & {5, 7} == {5} and ids - {2} == {5, 9}
    assert ids <= {2, 5, 9, 11} and {2} < ids
    assert pickle.loads(pickle.dumps(ids)) == ids
    assert AnswerSet() == set() and not AnswerSet()
    assert 2**32 not in AnswerSet([0, 2**32 - 1])
    for outside in (-1, 2**32):
        with pytest.raises(QueryError):
            AnswerSet([1, outside])


def _bytes_held(build) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()  # noqa: F841  (held while measuring)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_answer_set_is_smaller_than_a_python_set():
    """250 ids, the size of a paper-workload answer."""
    tids = np.arange(1000, 1250)
    compact = _bytes_held(lambda: AnswerSet(tids))
    plain = _bytes_held(lambda: set(tids.tolist()))
    assert compact * 3 < plain


def test_query_result_ids_are_answer_sets():
    res = QueryResult(ids={3, 1})
    assert isinstance(res.ids, AnswerSet) and res.ids == {1, 3}
    res.ids = [4, 4, 2]
    assert isinstance(res.ids, AnswerSet) and list(res.ids) == [2, 4]
    res.set_lazy_ids([np.array([7], dtype=np.int64),
                      np.array([5], dtype=np.int64)], extra={6})
    assert res.answer_count == 3 and list(res.ids) == [5, 6, 7]
    res.set_lazy_ids([])
    assert res.answer_count == 0 and res.ids == set()
    assert QueryResult().ids == set()
