"""Summary statistics and failure accounting for one benchmark run."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(samples: list[float], q: float, beyond: int = 10) -> float | None:
    """The ``q``-quantile, or None unless at least ``beyond`` samples
    lie above it: a tail percentile read from fewer points is noise."""
    if len(samples) * (1.0 - q) < beyond:
        return None
    return percentile(samples, q)


@dataclass
class Tally:
    """Requests attempted and how each failed one failed.

    Errors, OVERLOADED responses, timeouts, answer mismatches and lost
    acknowledged writes all count; ``failed_frac`` divides by the
    requests attempted.
    """

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] = self.failures.get(kind, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
