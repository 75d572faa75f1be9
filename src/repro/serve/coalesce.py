"""Batch coalescing: gather concurrent queries into one executor call.

The serving win mirrors the batch executor's own: 64 same-slope EXIST
queries cost 6 pages executed together versus 302 executed one by one,
so the front door parks arriving queries and flushes them as one batch
on the first of three triggers:

* **idle** — no batch is in flight and one event-loop pass brought no
  new submission: everything already sent has been read, so waiting
  longer only adds latency. Under load the engine is busy, queries
  park behind the running batch and leave together with the next one;
* **full** — ``max_batch`` queries are waiting;
* **deadline** — the oldest parked query has waited ``max_delay``
  seconds. This is only a ceiling: it bounds how long a steady trickle
  of submissions (one each pass, so the loop never goes idle) can hold
  the oldest query.

The deadline logic lives in :class:`BatchBuffer`, a pure structure
driven by an injected clock so tests can replay pathological arrival
patterns deterministically. The crucial invariant is **oldest-first
cutoff**: the flush deadline belongs to the *oldest* pending query and
is never advanced by later arrivals. The naive alternative — restart
the delay timer on every enqueue — starves under a steady trickle: with
queries arriving every ``max_delay - ε``, the timer resets forever and
the first query waits unboundedly. (Regression test:
``tests/serve/test_coalesce.py``.)

>>> buf = BatchBuffer(max_batch=4, max_delay=0.01, clock=lambda: 0.0)
>>> buf.push("a")
>>> buf.deadline()      # oldest arrival (t=0) + max_delay
0.01
>>> buf.due(at=0.005)   # not yet
False
>>> buf.due(at=0.01)
True
>>> buf.take()
['a']
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable


class BatchBuffer:
    """FIFO of pending items with an oldest-first flush deadline.

    Pure and synchronous: ``push`` stamps each item with the injected
    clock, ``deadline()`` is always ``oldest stamp + max_delay``, and
    ``take()`` pops up to ``max_batch`` items in arrival order. Items
    left behind by a full batch keep their original stamps, so the next
    deadline is still the (new) oldest arrival — a trickle can never
    push the head of the queue past its own deadline.
    """

    def __init__(
        self,
        max_batch: int,
        max_delay: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._clock = clock
        self._pending: deque[tuple[float, Any]] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, item: Any) -> None:
        """Enqueue ``item`` stamped with the current clock."""
        self._pending.append((self._clock(), item))

    def deadline(self) -> float | None:
        """When the oldest pending item must flush (None when empty).

        Monotone under arrivals: pushes never move an existing
        deadline, only ``take`` (by removing the oldest item) can.
        """
        if not self._pending:
            return None
        return self._pending[0][0] + self.max_delay

    def full(self) -> bool:
        """True when a full batch is waiting (flush immediately)."""
        return len(self._pending) >= self.max_batch

    def due(self, at: float | None = None) -> bool:
        """True when the buffer should flush at time ``at`` (now if
        omitted): either a full batch or the oldest item's deadline
        passed."""
        if not self._pending:
            return False
        if self.full():
            return True
        if at is None:
            at = self._clock()
        return at >= self.deadline()

    def take(self) -> list[Any]:
        """Pop up to ``max_batch`` items, oldest first."""
        out = []
        while self._pending and len(out) < self.max_batch:
            out.append(self._pending.popleft()[1])
        return out

    def drain(self) -> list[Any]:
        """Pop everything (shutdown path)."""
        out = [item for _, item in self._pending]
        self._pending.clear()
        return out


#: Event-loop iterations in one "pass": what a frame the selector
#: already reports readable needs to reach :meth:`Coalescer.submit`. A
#: task resuming from ``sleep(0)`` runs *before* that iteration's I/O
#: callbacks, so the frame's read callback runs on the first iteration,
#: the woken connection task decodes it on the second, the request
#: task it spawns submits on the third, and the coalescer sees the
#: submission on the fourth.
_PASS = 4


class Coalescer:
    """Asyncio wrapper: awaitable submit, background flush loop.

    ``submit(query)`` parks the query (with a fresh Future) in a
    :class:`BatchBuffer` and wakes the flush loop. Between batches the
    loop yields to the event loop so frames already readable reach
    ``submit``, and flushes once a whole pass adds no submission, the
    buffer is full, or the oldest query's deadline passed. It takes an
    oldest-first batch, hands it to ``execute`` — an async callable
    mapping a list of queries to a list of results — and resolves each
    Future. Failures propagate to every waiter in the failed batch,
    never beyond it.
    """

    def __init__(
        self,
        execute: Callable[[list], "asyncio.Future"],
        max_batch: int = 64,
        max_delay: float = 0.002,
        clock: Callable[[], float] = time.monotonic,
        on_flush: Callable[[int], None] | None = None,
    ) -> None:
        self._execute = execute
        self._buffer = BatchBuffer(max_batch, max_delay, clock)
        self._on_flush = on_flush
        #: Set by every submit (and by close): "something arrived".
        self._wake = asyncio.Event()
        self._closed = False
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Spawn the flush loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-coalescer")

    @property
    def depth(self) -> int:
        """Queries currently parked awaiting a batch."""
        return len(self._buffer)

    async def submit(self, query) -> Any:
        """Park ``query`` until its batch executes; return its result."""
        if self._closed:
            raise RuntimeError("coalescer is closed")
        future = asyncio.get_running_loop().create_future()
        self._buffer.push((query, future))
        self._wake.set()
        return await future

    async def _run(self) -> None:
        # Each iteration runs between batches: the engine is idle.
        while True:
            if not len(self._buffer):
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._settle()
            batch = self._buffer.take()
            queries = [query for query, _ in batch]
            futures = [future for _, future in batch]
            if self._on_flush is not None:
                self._on_flush(len(batch))
            try:
                results = await self._execute(queries)
                if len(results) != len(queries):  # pragma: no cover
                    raise RuntimeError(
                        f"executor returned {len(results)} results for "
                        f"{len(queries)} queries")
            except Exception as exc:
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for future, result in zip(futures, results):
                if not future.done():
                    future.set_result(result)

    async def _settle(self) -> None:
        """Yield to the event loop until ``_PASS`` iterations in a row
        bring no submission, the buffer is due, or close was called."""
        quiet = 0
        while quiet < _PASS and not self._closed and not self._buffer.due():
            self._wake.clear()
            await asyncio.sleep(0)
            quiet = 0 if self._wake.is_set() else quiet + 1

    async def close(self) -> None:
        """Flush whatever is pending, then stop the loop."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
