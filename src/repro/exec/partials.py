"""Compact per-shard batch answers.

:class:`ShardPartials` is what one shard contributes to a sharded
batch: every query's accepted tids as one concatenated int64 column with
an offsets array (*columnar*, so S shards × Q queries cost S array
concatenations, not S×Q Python set unions), plus refined extras and the
per-query / batch-scope accounting the facade sums.

The layout is deliberately numpy-first: the merge hands each query a
zero-copy view per shard instead of building Q Python sets per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.stats import IOStats

#: Technique codes (uint8 per query).
TECH_EXACT = 0
TECH_VECTOR = 1
TECH_NAMES = ("exact", "vector")


@dataclass
class ShardPartials:
    """One shard's answers + accounting for a whole batch of queries."""

    #: Accepted tuple ids of all queries, concatenated in query order.
    tids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: ``tids[offsets[j]:offsets[j+1]]`` is query ``j``'s accepted column.
    offsets: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    #: Refinement-confirmed tids per query (``None`` when empty).
    extras: list = field(default_factory=list)
    #: Technique code per query (``TECH_EXACT`` / ``TECH_VECTOR``).
    technique: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8)
    )
    #: Per-query diagnostics, aligned with the batch.
    candidates: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    false_hits: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    accepted_without_refinement: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    refinement_pages_q: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Batch-scope accounting (same meaning as :class:`BatchResult`).
    io: IOStats = field(default_factory=IOStats)
    cache_hits: int = 0
    cache_misses: int = 0
    exact_groups: int = 0
    vector_groups: int = 0
    sweep_leaves: int = 0
    refinement_pages: int = 0

    def __len__(self) -> int:
        return int(self.technique.size)

    def tid_column(self, j: int) -> np.ndarray:
        """Query ``j``'s accepted tid column (a zero-copy view)."""
        return self.tids[self.offsets[j] : self.offsets[j + 1]]

    def __repr__(self) -> str:
        return (
            f"<ShardPartials queries={len(self)} tids={self.tids.size} "
            f"pages={self.io.logical_reads + self.io.logical_writes}>"
        )
