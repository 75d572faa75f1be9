"""Coalescing-buffer tests, including the starvation regression.

The bug the oldest-first cutoff prevents: if the flush deadline resets
on every arrival, a steady trickle spaced just under ``max_delay``
postpones the flush forever and the oldest query never executes. The
:class:`BatchBuffer` deadline belongs to the oldest pending item, so a
trickle can delay it by at most one ``max_delay``.
"""

import asyncio
import socket
import time

import pytest

from repro.bench.harness import dual_planner, queries_for
from repro.obs.metrics import get_registry
from repro.serve.coalesce import _PASS, BatchBuffer, Coalescer
from repro.serve.protocol import FrameDecoder, encode_frame, query_to_request
from repro.serve.testing import ServerThread


class FakeClock:
    def __init__(self, at=0.0):
        self.at = at

    def __call__(self):
        return self.at


# ----------------------------------------------------------------------
# BatchBuffer (pure, fake clock)
# ----------------------------------------------------------------------
def test_deadline_is_oldest_arrival_plus_delay():
    clock = FakeClock()
    buf = BatchBuffer(max_batch=8, max_delay=0.010, clock=clock)
    buf.push("a")
    assert buf.deadline() == pytest.approx(0.010)
    clock.at = 0.004
    buf.push("b")
    # the deadline did NOT move: it still belongs to "a"
    assert buf.deadline() == pytest.approx(0.010)


def test_trickle_cannot_starve_the_oldest_request():
    """Regression: arrivals every 0.9×max_delay must not postpone the
    first item's flush past its own deadline."""
    clock = FakeClock()
    buf = BatchBuffer(max_batch=100, max_delay=0.010, clock=clock)
    buf.push(0)
    flushed_at = None
    for step in range(1, 50):
        clock.at = step * 0.009
        if buf.due():
            flushed_at = clock.at
            break
        buf.push(step)
    assert flushed_at is not None, "trickle starved the buffer"
    assert flushed_at <= 0.010 + 0.009  # one trickle step past deadline


def test_take_pops_oldest_first_and_keeps_stamps():
    clock = FakeClock()
    buf = BatchBuffer(max_batch=2, max_delay=0.010, clock=clock)
    for step in range(4):
        clock.at = step * 0.001
        buf.push(step)
    assert buf.full()
    assert buf.take() == [0, 1]
    # leftovers keep their original stamps: the next deadline belongs
    # to item 2 (enqueued at 0.002), not to "now"
    assert buf.deadline() == pytest.approx(0.002 + 0.010)
    assert buf.take() == [2, 3]
    assert buf.deadline() is None


def test_due_on_full_batch_ignores_clock():
    buf = BatchBuffer(max_batch=2, max_delay=9999.0, clock=FakeClock())
    buf.push("a")
    assert not buf.due()
    buf.push("b")
    assert buf.due()


def test_drain_empties_everything():
    buf = BatchBuffer(max_batch=2, max_delay=1.0, clock=FakeClock())
    for item in "abc":
        buf.push(item)
    assert buf.drain() == ["a", "b", "c"]
    assert len(buf) == 0


def test_rejects_nonsense_limits():
    with pytest.raises(ValueError):
        BatchBuffer(max_batch=0, max_delay=1.0)
    with pytest.raises(ValueError):
        BatchBuffer(max_batch=1, max_delay=-0.1)


# ----------------------------------------------------------------------
# Coalescer (asyncio)
# ----------------------------------------------------------------------
def test_concurrent_submits_share_one_batch():
    calls = []

    async def execute(queries):
        calls.append(list(queries))
        return [q * 10 for q in queries]

    async def scenario():
        coalescer = Coalescer(execute, max_batch=64, max_delay=0.01)
        coalescer.start()
        results = await asyncio.gather(
            *(coalescer.submit(n) for n in range(8)))
        await coalescer.close()
        return results

    assert asyncio.run(scenario()) == [n * 10 for n in range(8)]
    assert len(calls) == 1  # all eight coalesced
    assert sorted(calls[0]) == list(range(8))


def test_full_batch_flushes_before_deadline():
    calls = []

    async def execute(queries):
        calls.append(len(queries))
        return queries

    async def scenario():
        # max_delay is an hour, so the deadline cannot flush; the four
        # submits arrive in one loop pass and the size trigger fires.
        coalescer = Coalescer(execute, max_batch=4, max_delay=3600.0)
        coalescer.start()
        started = time.monotonic()
        await asyncio.gather(*(coalescer.submit(n) for n in range(4)))
        took = time.monotonic() - started
        await asyncio.wait_for(coalescer.close(), timeout=5)
        return took

    assert asyncio.run(scenario()) < 5.0
    assert calls == [4]


def test_executor_failure_reaches_every_waiter_in_batch_only():
    async def execute(queries):
        if "boom" in queries:
            raise RuntimeError("executor exploded")
        return queries

    async def scenario():
        coalescer = Coalescer(execute, max_batch=16, max_delay=0.005)
        coalescer.start()
        bad = await asyncio.gather(
            coalescer.submit("boom"), coalescer.submit("collateral"),
            return_exceptions=True)
        good = await coalescer.submit("fine")  # next batch unaffected
        await coalescer.close()
        return bad, good

    bad, good = asyncio.run(scenario())
    assert all(isinstance(r, RuntimeError) for r in bad)
    assert good == "fine"


def test_close_flushes_pending_and_rejects_new_work():
    async def execute(queries):
        return queries

    async def scenario():
        coalescer = Coalescer(execute, max_batch=64, max_delay=3600.0)
        coalescer.start()
        pending = asyncio.get_running_loop().create_task(
            coalescer.submit("parked"))
        await asyncio.sleep(0)  # let the submit park
        await asyncio.wait_for(coalescer.close(), timeout=5)
        result = await pending
        try:
            await coalescer.submit("late")
        except RuntimeError:
            return result, "rejected"
        return result, "accepted"

    assert asyncio.run(scenario()) == ("parked", "rejected")


def test_live_trickle_does_not_starve_first_submit():
    """End-to-end starvation regression on the real event loop: keep a
    trickle arriving faster than max_delay and require the first
    submission to resolve on its own deadline, not the trickle's end."""
    executed_at = {}

    async def execute(queries):
        for q in queries:
            executed_at.setdefault(q, time.monotonic())
        return queries

    async def scenario():
        coalescer = Coalescer(execute, max_batch=1000, max_delay=0.05)
        coalescer.start()
        started = time.monotonic()
        first = asyncio.get_running_loop().create_task(
            coalescer.submit("first"))
        trickle = []
        for n in range(10):  # 10 × 30ms = 300ms of trickle
            await asyncio.sleep(0.03)
            trickle.append(asyncio.get_running_loop().create_task(
                coalescer.submit(f"drip-{n}")))
        await first
        await asyncio.gather(*trickle)
        await coalescer.close()
        return executed_at["first"] - started

    # Deadline is 50ms; generous CI allowance, but far below the 300ms
    # a deadline-resetting buffer would take.
    assert asyncio.run(scenario()) < 0.25


# ----------------------------------------------------------------------
# Idle trigger
# ----------------------------------------------------------------------
def test_lone_submit_resolves_within_a_few_loop_passes():
    """With the deadline an hour away, only the idle trigger can flush
    a single query: it must leave after one quiet pass, not at the
    deadline."""
    async def execute(queries):
        return queries

    async def scenario():
        coalescer = Coalescer(execute, max_batch=64, max_delay=3600.0)
        coalescer.start()
        submitted = asyncio.get_running_loop().create_task(
            coalescer.submit("alone"))
        ticks = 0  # event-loop iterations until the query resolves
        while not submitted.done() and ticks < 1000:
            await asyncio.sleep(0)
            ticks += 1
        result = await asyncio.wait_for(submitted, timeout=1)
        await asyncio.wait_for(coalescer.close(), timeout=5)
        return result, ticks

    result, ticks = asyncio.run(scenario())
    assert result == "alone"
    assert ticks <= 3 * _PASS


def test_submits_during_an_inflight_batch_leave_in_one_batch():
    """Under load the engine is busy: queries that arrive while a batch
    runs park, and all of them leave together in the next batch."""
    calls = []

    async def scenario():
        release = asyncio.Event()

        async def execute(queries):
            calls.append(list(queries))
            if len(calls) == 1:
                await release.wait()
            return queries

        coalescer = Coalescer(execute, max_batch=64, max_delay=3600.0)
        coalescer.start()
        loop = asyncio.get_running_loop()
        first = loop.create_task(coalescer.submit("first"))
        for _ in range(1000):
            if calls:
                break
            await asyncio.sleep(0)
        assert calls, "a lone submit never reached execute"
        late = []
        for n in range(5):  # one per pass, all while execute blocks
            late.append(loop.create_task(coalescer.submit(n)))
            for _ in range(_PASS + 1):
                await asyncio.sleep(0)
        release.set()
        await asyncio.wait_for(asyncio.gather(first, *late), timeout=5)
        await asyncio.wait_for(coalescer.close(), timeout=5)

    asyncio.run(scenario())
    assert calls == [["first"], [0, 1, 2, 3, 4]]


def test_submit_every_pass_cannot_hold_oldest_past_max_delay():
    """A trickle that submits on every event-loop iteration never lets
    a pass go quiet, so the idle trigger never fires; the oldest-first
    deadline must still flush the first query on time."""
    executed_at = {}

    async def execute(queries):
        now = time.monotonic()
        for q in queries:
            executed_at.setdefault(q, now)
        return queries

    async def scenario():
        coalescer = Coalescer(execute, max_batch=10**6, max_delay=0.02)
        coalescer.start()
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        first = loop.create_task(coalescer.submit("first"))
        trickle = []
        while not first.done() and time.monotonic() - started < 2.0:
            trickle.append(loop.create_task(coalescer.submit(len(trickle))))
            await asyncio.sleep(0)
        still_trickling = not first.done() or bool(trickle)
        await first
        await asyncio.gather(*trickle)
        await coalescer.close()
        return executed_at["first"] - started, still_trickling

    waited, still_trickling = asyncio.run(scenario())
    assert still_trickling
    # Deadline is 20 ms; generous CI allowance, far below the 2 s the
    # trickle would otherwise run for.
    assert waited < 0.25


def test_sleep_zero_resumes_before_that_iterations_io_callbacks():
    """The asyncio detail ``_PASS`` is built on: a task resuming from
    ``sleep(0)`` runs before the I/O callbacks of the iteration it
    resumes in, so a readable socket's callback has not run after one
    yield, only after the second."""
    async def scenario():
        loop = asyncio.get_running_loop()
        left, right = socket.socketpair()
        fired = []
        try:
            right.sendall(b"x")  # `left` is readable from now on
            loop.add_reader(left.fileno(), fired.append, "read")
            await asyncio.sleep(0)
            after_one = list(fired)
            await asyncio.sleep(0)
            after_two = list(fired)
        finally:
            loop.remove_reader(left.fileno())
            left.close()
            right.close()
        return after_one, after_two

    assert asyncio.run(scenario()) == ([], ["read"])


def test_already_readable_frame_reaches_submit_within_one_pass():
    """A frame written while the coalescer settles must join the batch:
    its read callback, the connection task's decode and the request
    task's submit take one event-loop iteration each, so the submit
    lands before a task yielding ``_PASS`` times resumes the last time.
    The handler mirrors the server's: read, then a task per request."""
    calls = []

    async def execute(queries):
        calls.append(list(queries))
        return queries

    async def scenario():
        loop = asyncio.get_running_loop()
        coalescer = Coalescer(execute, max_batch=64, max_delay=3600.0)
        coalescer.start()
        connected = asyncio.Event()
        yields = 0
        parked_at = []
        answers = []

        async def request(name):
            parked_at.append(yields)
            return await coalescer.submit(name)

        async def handle(reader, writer):
            connected.set()
            line = await reader.readline()
            answers.append(loop.create_task(request(line.strip().decode())))
            await reader.read()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await connected.wait()
        for _ in range(_PASS):  # let the handler park in readline
            await asyncio.sleep(0)
        writer.write(b"frame\n")  # straight to the socket
        direct = loop.create_task(coalescer.submit("direct"))
        while not parked_at and yields < 100:
            await asyncio.sleep(0)
            yields += 1
        await asyncio.wait_for(asyncio.gather(direct, *answers), timeout=5)
        writer.close()
        server.close()
        await server.wait_closed()
        await coalescer.close()
        return parked_at

    assert asyncio.run(scenario())[0] < _PASS
    assert calls == [["direct", "frame"]]


def test_pipelined_frames_share_one_served_batch():
    """Two query frames sent in one ``sendall`` reach the server in one
    read, so they leave the coalescer as one batch: the
    ``serve_batch_size`` histogram gains one observation of 2."""
    planner = dual_planner(200, "small", 3)
    queries = queries_for(200, "small", "EXIST", 3, count=2)

    def batch_size():
        summary = get_registry().collect()["histograms"]["serve_batch_size"]
        return summary["count"], summary["total"]

    with ServerThread(engine=planner, max_delay=3600.0) as server:
        count0, sum0 = batch_size()
        with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"".join(
                encode_frame(query_to_request(q, rid))
                for rid, q in enumerate(queries)))
            decoder = FrameDecoder()
            responses = []
            while len(responses) < 2:
                responses += decoder.feed(sock.recv(65536))
        count, total = batch_size()
        assert (count - count0, total - sum0) == (1, 2)
    assert sorted(r["id"] for r in responses) == [0, 1]
    assert all(r["ok"] for r in responses)
