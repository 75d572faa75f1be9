"""Request-scoped trace contexts (repro.obs.tracer)."""

import pytest

from repro.obs import tracer
from repro.obs.tracer import (
    MAX_TRACE_ID,
    RequestTracer,
    TraceContext,
    from_payload,
    request_context,
    valid_trace_id,
)


class TestTraceContext:
    def test_payload_round_trip(self):
        ctx = TraceContext("abc-123", sampled=True)
        again = from_payload(ctx.payload())
        assert again == ctx

    def test_frozen(self):
        ctx = TraceContext("x")
        with pytest.raises(AttributeError):
            ctx.trace_id = "y"


class TestValidTraceId:
    @pytest.mark.parametrize("good", ["a", "abc-123", "x" * MAX_TRACE_ID])
    def test_accepts(self, good):
        assert valid_trace_id(good)

    @pytest.mark.parametrize(
        "bad",
        ["", "x" * (MAX_TRACE_ID + 1), "has\nnewline", "tab\there",
         123, None, b"bytes"],
    )
    def test_rejects(self, bad):
        assert not valid_trace_id(bad)


class TestFromPayload:
    def test_none_and_non_dict(self):
        assert from_payload(None) is None
        assert from_payload("abc") is None
        assert from_payload(["id"]) is None

    def test_invalid_id_is_untraced_not_error(self):
        assert from_payload({"id": ""}) is None
        assert from_payload({"id": 7}) is None
        assert from_payload({}) is None

    def test_sampled_defaults_false(self):
        ctx = from_payload({"id": "t1"})
        assert ctx == TraceContext("t1", sampled=False)


class TestRequestContextHook:
    def test_no_context_by_default(self):
        assert tracer.context() is None

    def test_install_and_restore(self):
        ctx = TraceContext("t1")
        with request_context(ctx):
            assert tracer.context() is ctx
        assert tracer.context() is None

    def test_nesting_restores_outer(self):
        outer, inner = TraceContext("outer"), TraceContext("inner")
        with request_context(outer):
            with request_context(inner):
                assert tracer.context() is inner
            assert tracer.context() is outer
        assert tracer.context() is None

    def test_none_is_a_noop_block(self):
        outer = TraceContext("outer")
        with request_context(outer):
            with request_context(None):
                assert tracer.context() is outer

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with request_context(TraceContext("boom")):
                raise RuntimeError("x")
        assert tracer.context() is None


class TestRequestTracer:
    def test_minted_ids_are_unique_and_prefixed(self):
        rt = RequestTracer(prefix="p")
        ids = {rt.new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("p-") for i in ids)

    def test_adopts_valid_client_id(self):
        rt = RequestTracer(prefix="srv")
        ctx = rt.make_context({"id": "client-7"})
        assert ctx.trace_id == "client-7"

    def test_mints_for_missing_or_invalid_wire_trace(self):
        rt = RequestTracer(prefix="srv")
        assert rt.make_context(None).trace_id.startswith("srv-")
        assert rt.make_context({"id": ""}).trace_id.startswith("srv-")

    def test_sampling_cadence(self):
        rt = RequestTracer(sample_every=3, prefix="p")
        sampled = [rt.make_context().sampled for _ in range(9)]
        assert sampled == [True, False, False] * 3

    def test_sample_every_zero_never_samples(self):
        rt = RequestTracer(sample_every=0, prefix="p")
        assert not any(rt.make_context().sampled for _ in range(20))

    def test_client_can_force_but_not_suppress_sampling(self):
        rt = RequestTracer(sample_every=2, prefix="p")
        # request 0 is due for sampling; a client cannot turn that off
        first = rt.make_context({"id": "c0", "sampled": False})
        assert first.sampled
        # request 1 is off-cadence; the client can still opt in
        second = rt.make_context({"id": "c1", "sampled": True})
        assert second.sampled
        # request 2 is due again (cadence unaffected by the forcing)
        assert rt.make_context({"id": "c2"}).sampled

    def test_negative_sample_every_rejected(self):
        with pytest.raises(ValueError):
            RequestTracer(sample_every=-1)
