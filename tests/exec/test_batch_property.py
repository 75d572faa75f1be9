"""Property test: batched ALL/EXIST answers ≡ sequential per-query answers.

Random mixed-slope batches (exact-path, interior, and wrap-around
slopes, both query types and operators) against a shared executor whose
result cache persists across examples — caching must never change an
answer set. Exact-path queries must also match the sequential
accounting: false hits, accepted-without-refinement and refinement
pages. A fixed batch runs both sides of the refinement kernel's
cut-off (:data:`repro.core.planner.KERNEL_MIN_RECORDS`).

Example budget and determinism come from the shared hypothesis profiles
registered in ``tests/conftest.py`` (``ci``/``dev``/``nightly``).
"""

import random

from hypothesis import given, strategies as st

from repro import GeneralizedRelation, parse_tuple
from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.core import planner as planner_module
from repro.exec import BatchExecutor
from repro.storage import Pager, serialize
from tests.conftest import random_mixed_relation

SLOPES = [-1.0, 0.5, 2.0]

_STATE = {}


def _setup():
    if _STATE:
        return _STATE
    rng = random.Random(31337)
    relation = random_mixed_relation(rng, 40)
    planner = DualIndexPlanner.build(
        relation, SlopeSet(SLOPES), pager=Pager(buffer_frames=8), key_bytes=4
    )
    _STATE["planner"] = planner
    _STATE["executor"] = BatchExecutor(planner)
    return _STATE


_query = st.builds(
    HalfPlaneQuery,
    st.sampled_from([ALL, EXIST]),
    st.one_of(
        st.sampled_from(SLOPES),  # exact path (merged sweeps)
        st.floats(min_value=-2.5, max_value=2.5),  # interior (vectorized)
        st.floats(min_value=-30.0, max_value=30.0),  # wrap-around
    ),
    st.floats(min_value=-80.0, max_value=80.0),
    st.sampled_from([">=", "<="]),
)


def _accounting(result):
    return (
        result.technique,
        result.ids,
        result.false_hits,
        result.accepted_without_refinement,
        result.refinement_pages,
    )


@given(queries=st.lists(_query, min_size=1, max_size=8))
def test_batched_equals_sequential(queries):
    state = _setup()
    want = [state["planner"].query(q) for q in queries]
    batch = state["executor"].execute(queries)
    assert [r.ids for r in batch.results] == [w.ids for w in want]
    for got, seq in zip(batch.results, want):
        if seq.technique == "exact":
            assert _accounting(got) == _accounting(seq)


def test_boundary_slices_on_both_sides_of_the_kernel_cut_off(monkeypatch):
    """One merged EXIST(>=) sweep on slope 0 whose two queries refine a
    slice of ``KERNEL_MIN_RECORDS + 2`` records (kernel, with an
    unbounded record it leaves undecided) and a 1-record slice (scalar).
    Every boundary record's TOP(0) lies within the sweep margin of its
    query's intercept, well clear of the kernel's own margin."""
    wide = planner_module.KERNEL_MIN_RECORDS
    box = "x >= {x} and x <= {x} + 1 and y >= 0 and y <= {top}"
    tuples = [box.format(x=2 * i, top=5) for i in range(wide)]
    tuples.append(box.format(x=100, top=4.99994))  # a false hit
    tuples.append("y <= 5 and x >= 200")  # unbounded below
    tuples.append(box.format(x=300, top=20))
    relation = GeneralizedRelation([parse_tuple(t) for t in tuples])
    planner = DualIndexPlanner.build(relation, [-1.0, 0.0, 1.0])
    queries = [
        HalfPlaneQuery(EXIST, 0.0, 4.99997, ">="),
        HalfPlaneQuery(EXIST, 0.0, 19.99997, ">="),
    ]
    want = [planner.query(q) for q in queries]

    kernel_slices, scalar_records = [], []
    real_rows = planner_module.decode_halfplanes_2d
    real_decode = serialize.decode_tuple
    monkeypatch.setattr(
        planner_module, "decode_halfplanes_2d",
        lambda chunk: kernel_slices.append(len(chunk)) or real_rows(chunk),
    )
    monkeypatch.setattr(
        serialize, "decode_tuple",
        lambda data: scalar_records.append(1) or real_decode(data),
    )
    batch = BatchExecutor(planner, cache_size=0).execute(queries)

    assert batch.exact_groups == 1
    assert [_accounting(r) for r in batch.results] == [
        _accounting(w) for w in want
    ]
    assert [r.candidates - r.accepted_without_refinement
            for r in batch.results] == [wide + 2, 1]
    assert kernel_slices == [wide + 2]
    # The unbounded record the kernel left, then the 1-record slice.
    assert len(scalar_records) == 2
    assert want[0].false_hits == 1
    assert want[0].ids == set(range(wide)) | {wide + 1, wide + 2}
