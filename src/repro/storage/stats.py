"""I/O statistics for the simulated disk stack.

The paper's experimental metric is *page accesses*. :class:`IOStats`
counts logical reads/writes (every page the code touches — what a cold
buffer pool would fetch) separately from physical reads/writes (what
actually crossed the simulated disk boundary when a buffer pool is
active). Benchmarks report logical reads to match the paper's cold-cache
setting; ablation A3 contrasts the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Counters for one pager stack."""

    logical_reads: int = 0
    logical_writes: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    allocations: int = 0
    frees: int = 0

    @property
    def page_accesses(self) -> int:
        """The paper's metric: logical page reads plus writes."""
        return self.logical_reads + self.logical_writes

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counters."""
        return IOStats(
            self.logical_reads,
            self.logical_writes,
            self.physical_reads,
            self.physical_writes,
            self.allocations,
            self.frees,
        )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counter difference ``self - earlier``."""
        return IOStats(
            self.logical_reads - earlier.logical_reads,
            self.logical_writes - earlier.logical_writes,
            self.physical_reads - earlier.physical_reads,
            self.physical_writes - earlier.physical_writes,
            self.allocations - earlier.allocations,
            self.frees - earlier.frees,
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        """Fieldwise sum (work on disjoint pager stacks adds up)."""
        return IOStats(
            self.logical_reads + other.logical_reads,
            self.logical_writes + other.logical_writes,
            self.physical_reads + other.physical_reads,
            self.physical_writes + other.physical_writes,
            self.allocations + other.allocations,
            self.frees + other.frees,
        )

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (the trace/metrics JSON schema)."""
        return {
            "logical_reads": self.logical_reads,
            "logical_writes": self.logical_writes,
            "physical_reads": self.physical_reads,
            "physical_writes": self.physical_writes,
            "allocations": self.allocations,
            "frees": self.frees,
        }

    def reset(self) -> None:
        """Zero every counter in place."""
        self.logical_reads = 0
        self.logical_writes = 0
        self.physical_reads = 0
        self.physical_writes = 0
        self.allocations = 0
        self.frees = 0


@dataclass
class StatsScope:
    """Context manager measuring the I/O delta of a code block.

    Example::

        with StatsScope(pager.stats) as scope:
            index.exist(...)
        print(scope.delta.page_accesses)
    """

    stats: IOStats
    delta: IOStats = field(default_factory=IOStats)
    _before: IOStats = field(default_factory=IOStats)

    def __enter__(self) -> "StatsScope":
        self._before = self.stats.snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        self.delta = self.stats.delta_since(self._before)
