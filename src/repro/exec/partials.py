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

from dataclasses import dataclass, field

import numpy as np

from repro.storage.stats import IOStats


@dataclass(slots=True)
class ShardPartials:
    """One pipeline run's answers + accounting for a batch of queries."""

    #: Accepted tuple ids per query: an int64 array (inside
    #: :func:`~repro.exec.executor.merge_partials`, a tuple of the
    #: shards' arrays).
    tids: list[np.ndarray] = field(default_factory=list)
    #: Refinement-confirmed tids per query (``None`` when none).
    extras: list[set[int] | None] = field(default_factory=list)
    #: Technique per query (``"exact"`` or ``"vector"``).
    technique: list[str] = field(default_factory=list)
    #: Per-query diagnostics.
    candidates: list[int] = field(default_factory=list)
    false_hits: list[int] = field(default_factory=list)
    accepted_without_refinement: list[int] = field(default_factory=list)
    refinement_pages_q: list[int] = field(default_factory=list)
    #: Batch-scope accounting (same meaning as :class:`BatchResult`).
    io: IOStats = field(default_factory=IOStats)
    cache_hits: int = 0
    cache_misses: int = 0
    exact_groups: int = 0
    vector_groups: int = 0
    sweep_leaves: int = 0
    refinement_pages: int = 0

    @classmethod
    def sized(cls, n: int) -> "ShardPartials":
        """Empty answers for ``n`` queries, filled in by the pipeline."""
        return cls(
            tids=[None] * n,  # type: ignore[list-item]
            extras=[None] * n,
            technique=["exact"] * n,
            candidates=[0] * n,
            false_hits=[0] * n,
            accepted_without_refinement=[0] * n,
            refinement_pages_q=[0] * n,
        )

    def copy_answer(self, source: int, target: int) -> None:
        """Give query ``target`` query ``source``'s answer (duplicates)."""
        for column in (
            self.tids, self.extras, self.technique, self.candidates,
            self.false_hits, self.accepted_without_refinement,
            self.refinement_pages_q,
        ):
            column[target] = column[source]

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
