"""Sharding subsystem.

* :mod:`repro.shard.sharded` — :class:`ShardedDualIndex`, N independent
  shards behind one planner-like facade; queries and batches run on
  each shard in turn and merge.
"""

from repro.shard.sharded import ShardedDualIndex, shard_of

__all__ = ["ShardedDualIndex", "shard_of"]
