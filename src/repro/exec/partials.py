"""Per-query batch answers before assembly.

:class:`ShardPartials` is what one run of the batch pipeline
(:meth:`repro.exec.BatchExecutor.execute_partials`) produces: per query,
the accepted tids as one int64 array, the refinement-confirmed extras,
the technique name and the per-query counters, plus the batch-scope
accounting. Every list is aligned with the batch's queries.

:func:`repro.exec.executor.merge_partials` turns one or more of them —
one per shard of a sharded batch — into a :class:`BatchResult`; a
merged answer keeps one tid array per part, so no Python set exists
until a caller reads ``ids``.
"""

from __future__ import annotations

import numpy as np

from repro.storage.stats import IOStats

#: The per-query columns, aligned with the batch's queries.
_COLUMNS = (
    "tids", "extras", "technique", "candidates", "false_hits",
    "accepted_without_refinement", "refinement_pages_q",
)


class ShardPartials:
    """One pipeline run's answers + accounting for a batch of queries."""

    __slots__ = _COLUMNS + (
        "io", "cache_hits", "cache_misses", "exact_groups",
        "vector_groups", "sweep_leaves", "refinement_pages",
    )

    def __init__(self, n: int = 0) -> None:
        """Empty answers for ``n`` queries, filled in by the pipeline."""
        #: Accepted tuple ids per query: an int64 array (inside
        #: :func:`~repro.exec.executor.merge_partials`, a tuple of the
        #: shards' arrays).
        self.tids: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        #: Refinement-confirmed tids per query (``None`` when none).
        self.extras: list[set[int] | None] = [None] * n
        #: Technique per query (``"exact"`` or ``"vector"``).
        self.technique: list[str] = ["exact"] * n
        #: Per-query diagnostics.
        self.candidates: list[int] = [0] * n
        self.false_hits: list[int] = [0] * n
        self.accepted_without_refinement: list[int] = [0] * n
        self.refinement_pages_q: list[int] = [0] * n
        #: Batch-scope accounting (same meaning as :class:`BatchResult`).
        self.io = IOStats()
        self.cache_hits = 0
        self.cache_misses = 0
        self.exact_groups = 0
        self.vector_groups = 0
        self.sweep_leaves = 0
        self.refinement_pages = 0

    def spread(self, positions: list[list[int]], n: int) -> None:
        """Lay the answers out over ``n`` batch positions: answer ``j``
        becomes the answer of every position in ``positions[j]`` (the
        in-batch duplicates of one distinct query share it)."""
        slot = [0] * n
        for j, at in enumerate(positions):
            for position in at:
                slot[position] = j
        for name in _COLUMNS:
            column = getattr(self, name)
            setattr(self, name, [column[j] for j in slot])

    @property
    def answers(self) -> int:
        """Answer tuples over all queries (accepted plus extras)."""
        return sum(t.size for t in self.tids) + sum(
            len(e) for e in self.extras if e
        )

    def __len__(self) -> int:
        return len(self.technique)

    def __repr__(self) -> str:
        return (
            f"<ShardPartials queries={len(self)} answers={self.answers} "
            f"pages={self.io.page_accesses}>"
        )
