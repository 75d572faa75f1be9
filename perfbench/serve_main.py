"""Server process of the served workloads: ``repro serve`` plus hooks.

Usage (from the repository root)::

    python3 perfbench/serve_main.py DATA_DIR SNAPSHOTS [--trace]

Runs :func:`repro.serve.server.serve_until_interrupted` with tracing
off, exactly as ``repro serve`` does. Two hooks are added from outside
the program:

* with ``--trace``, :class:`layers.LayerTracer` wraps the layer
  functions before the server starts;
* every SIGUSR1 appends one JSON line to ``SNAPSHOTS``: the wall clock,
  the process's peak RSS and, when tracing, the layer accumulators. The
  benchmark signals at the start and end of a measured window and
  subtracts (serve-cold also signals once at a fixed query count, where
  it reads the peak RSS).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from layers import LayerTracer  # noqa: E402
from repro.serve.server import ServeConfig, serve_until_interrupted  # noqa: E402
from served import WAL_CHECKPOINT_BYTES  # noqa: E402
from stats import peak_rss_mb  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir")
    parser.add_argument("snapshots")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = LayerTracer(query_probe="execute")
        tracer.install(served=True)

    def snapshot(_signum, _frame) -> None:
        line = {
            "t": time.perf_counter(),
            "rss_mb": peak_rss_mb(),
            "layers": tracer.snapshot() if tracer is not None else None,
        }
        with open(args.snapshots, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")

    signal.signal(signal.SIGUSR1, snapshot)
    config = ServeConfig(
        data_dir=args.data_dir,
        port=0,
        wal_checkpoint_bytes=WAL_CHECKPOINT_BYTES,
    )
    asyncio.run(serve_until_interrupted(config))


if __name__ == "__main__":
    main()
