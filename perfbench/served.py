"""Driving a served engine: the server process and the closed-loop client.

The server runs as its own process (:mod:`serve_main`), so client and
server never share an interpreter lock. The client is one asyncio
process with a fixed number of connections, each with one request in
flight (a closed loop: a connection sends its next request only after
the previous answer arrived).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.serve.client import ReproClient, SyncReproClient

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVE_MAIN = os.path.join(HERE, "serve_main.py")

#: Seconds one request may take before it counts as a timeout.
REQUEST_TIMEOUT = 30.0
#: Client connections, each with one request in flight.
CONNECTIONS = 2
#: WAL auto-checkpoint threshold of every served engine. A serve-rw
#: mutation logs ~35 KB of page images, so a run spans several
#: checkpoints; read-only serve-cold never reaches it. The WAL is
#: fsynced on commit only (``FileDisk`` ``durability="wal"``).
WAL_CHECKPOINT_BYTES = 256 << 10


class ServerProcess:
    """One ``serve_main`` process over one data directory."""

    def __init__(self, data_dir: str, work_dir: str,
                 trace: bool = False) -> None:
        self.data_dir = data_dir
        tag = os.path.basename(data_dir)
        self._out = os.path.join(work_dir, f"{tag}.out")
        self._err = os.path.join(work_dir, f"{tag}.err")
        self.snapshots = os.path.join(work_dir, f"{tag}.snapshots")
        #: Snapshots signalled so far; each writes one line, in order.
        self._requested = 0
        argv = [sys.executable, SERVE_MAIN, data_dir, self.snapshots]
        if trace:
            argv.append("--trace")
        with open(self._out, "w") as out, open(self._err, "w") as err:
            self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        self.port = self._await_port()
        SyncReproClient("127.0.0.1", self.port).ping()

    def _await_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._out) as fh:
                for line in fh:
                    if line.startswith("serving "):
                        address = line.rsplit(" on ", 1)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        with open(self._err) as fh:
            raise RuntimeError(f"server did not start: {fh.read()[-2000:]}")

    def request_snapshot(self) -> int:
        """Signal a snapshot without waiting for it (safe inside the
        client's event loop); returns the index of its line."""
        self._requested += 1
        self.proc.send_signal(signal.SIGUSR1)
        return self._requested - 1

    def snapshot(self) -> dict:
        """Signal a snapshot and return it once written."""
        # Earlier requests are written first: two signals pending at
        # once would be delivered as one.
        self._await_lines(self._requested)
        return self.snapshot_line(self.request_snapshot())

    def snapshot_line(self, index: int) -> dict:
        """The snapshot a :meth:`request_snapshot` call returned."""
        return json.loads(self._await_lines(index + 1)[index])

    def _await_lines(self, count: int, timeout: float = 10.0) -> list[str]:
        deadline = time.monotonic() + timeout
        while True:
            lines = self._lines()
            if len(lines) >= count:
                return lines
            if time.monotonic() > deadline:
                raise RuntimeError("server wrote no snapshot")
            time.sleep(0.005)

    def _lines(self) -> list[str]:
        if not os.path.exists(self.snapshots):
            return []
        with open(self.snapshots) as fh:
            return [line for line in fh if line.endswith("\n")]

    def stop(self) -> None:
        """Graceful shutdown (SIGTERM), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.kill()

    def kill(self) -> None:
        """SIGKILL: the crash of the durability check."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=15)


@dataclass
class Op:
    """One request of a stream; ``envelope`` is what goes on the wire."""

    kind: str
    envelope: dict
    query: object = None
    tid: int | None = None
    payload: object = None
    epoch: int | None = None


@dataclass
class LoopResult:
    """What a closed loop observed, client side.

    Throughput counts only requests completed inside the window:
    a request still in flight at the deadline (a write stall, say) is
    awaited and checked but would otherwise stretch the window. A stream
    that runs dry ends the window early: ``window_s`` is the time the
    loop actually ran, capped at the deadline.
    """

    window_s: float = 0.0
    exhausted: bool = False
    completed: int = 0
    in_window: dict[str, int] = field(default_factory=dict)
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    techniques: dict[str, int] = field(default_factory=dict)


async def _closed_loop(port: int, stream, seconds: float) -> LoopResult:
    result = LoopResult()
    clients = [await ReproClient.connect("127.0.0.1", port)
               for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    deadline = started + seconds

    async def connection(client: ReproClient) -> None:
        while time.perf_counter() < deadline:
            op = stream.next_op()
            if op is None:
                result.exhausted = True
                return
            sent = time.perf_counter()
            try:
                response = await asyncio.wait_for(
                    client.request(op.envelope), REQUEST_TIMEOUT)
            except asyncio.TimeoutError:
                response = {"ok": False, "error": {"code": "TIMEOUT"}}
            except (ConnectionError, ProtocolError, OSError):
                response = {"ok": False, "error": {"code": "CONNECTION"}}
            answered = time.perf_counter()
            latency = (answered - sent) * 1e3
            result.completed += 1
            if answered <= deadline:
                result.in_window[op.kind] = result.in_window.get(op.kind, 0) + 1
            if response.get("ok"):
                result.latencies_ms.setdefault(op.kind, []).append(latency)
                if op.kind == "query":
                    technique = response["technique"]
                    result.techniques[technique] = \
                        result.techniques.get(technique, 0) + 1
            else:
                code = response.get("error", {}).get("code", "INTERNAL")
                result.errors[code] = result.errors.get(code, 0) + 1
            stream.done(op, response)

    try:
        await asyncio.gather(*(connection(c) for c in clients))
    finally:
        for client in clients:
            await client.close()
    result.window_s = min(time.perf_counter(), deadline) - started
    return result


def closed_loop(port: int, stream, seconds: float) -> LoopResult:
    """Run ``stream`` against the server for ``seconds``.

    ``stream.next_op()`` returns the next :class:`Op` (None when the
    stream is exhausted) and ``stream.done(op, response)`` sees every
    answer. Requests in flight at the deadline are awaited and counted.
    """
    return asyncio.run(_closed_loop(port, stream, seconds))
