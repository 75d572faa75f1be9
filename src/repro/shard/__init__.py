"""Sharding and parallel-build subsystem.

* :mod:`repro.shard.keys` — vectorized + process-parallel
  :class:`EntryKeys` computation for the bulk build path.
* :mod:`repro.shard.sharded` — :class:`ShardedDualIndex`, N independent
  shards behind one planner-like facade; queries and batches run on
  each shard in turn and merge.
"""

from repro.shard.keys import (
    compute_keys_batch,
    needed_slopes,
    parallel_compute_keys,
)
from repro.shard.sharded import ShardedDualIndex, shard_of

__all__ = [
    "ShardedDualIndex",
    "compute_keys_batch",
    "needed_slopes",
    "parallel_compute_keys",
    "shard_of",
]
