"""Half-plane queries and query results.

A :class:`HalfPlaneQuery` is the paper's query object
``Q(x_d θ b_1 x_1 + … + b_{d-1} x_{d-1} + b_d)`` with
``Q ∈ {ALL, EXIST}``: a query type, a slope (scalar in 2-D, vector in
d-D), an intercept, and a weak comparison operator.

:class:`QueryResult` carries the answer set plus the per-query
diagnostics the experiments report: candidates retrieved, false hits
discarded by refinement, duplicates produced by the approximation, and
the page accesses charged.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.constraints.linear import LinearConstraint
from repro.constraints.theta import Theta
from repro.errors import QueryError
from repro.storage.stats import IOStats

ALL = "ALL"
EXIST = "EXIST"


@lru_cache(maxsize=1024)
def _scalar_slope(slope: float) -> tuple[float]:
    """The ``(slope,)`` field of a 2-D query, one tuple per slope value.

    Queries repeat slopes (every query on a slope of S uses one of k
    values) and tuples are immutable, so queries on one slope share the
    tuple; callers that keep many queries hold 48 bytes less per query.
    """
    return (slope,)


@dataclass(frozen=True, slots=True)
class HalfPlaneQuery:
    """An ALL or EXIST selection against a half-plane.

    ``EXIST`` selects tuples whose extension *meets* the half-plane
    ``y θ s·x + b``; ``ALL`` selects tuples *contained* in it. The slope
    may be a scalar (2-D) or a vector (d-D); ``theta`` accepts the
    symbols ``">="``/``"<="`` or :class:`~repro.constraints.theta.Theta`
    members.

    Example::

        >>> q = HalfPlaneQuery("EXIST", 0.5, 2.0, ">=")
        >>> q
        EXIST(x2 >= 0.5·x' + 2)
        >>> q.slope_2d, q.intercept, q.dimension
        (0.5, 2.0, 2)
        >>> q.with_type("ALL").query_type
        'ALL'
    """

    query_type: str
    slope: tuple[float, ...]
    intercept: float
    theta: Theta

    def __init__(
        self,
        query_type: str,
        slope: float | Sequence[float],
        intercept: float,
        theta: Theta | str,
    ) -> None:
        if query_type not in (ALL, EXIST):
            raise QueryError(
                f"query type must be {ALL!r} or {EXIST!r}, got {query_type!r}"
            )
        if isinstance(theta, str):
            theta = Theta.from_symbol(theta)
        if theta not in (Theta.GE, Theta.LE):
            raise QueryError(f"half-plane queries use >= or <=, got {theta}")
        if isinstance(slope, (int, float)):
            slope = float(slope)
            # -0.0 == 0.0, so zero slopes bypass the shared tuples.
            slope_t: tuple[float, ...] = (
                _scalar_slope(slope) if slope else (slope,)
            )
        else:
            slope_t = tuple(float(v) for v in slope)
        if not slope_t:
            raise QueryError("empty query slope")
        object.__setattr__(self, "query_type", query_type)
        object.__setattr__(self, "slope", slope_t)
        object.__setattr__(self, "intercept", float(intercept))
        object.__setattr__(self, "theta", theta)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Dimension of the space the query lives in."""
        return len(self.slope) + 1

    @property
    def slope_2d(self) -> float:
        """The scalar angular coefficient (2-D queries only)."""
        if len(self.slope) != 1:
            raise QueryError("slope_2d on a non-2-D query")
        return self.slope[0]

    def as_constraint(self) -> LinearConstraint:
        """The query half-plane as a linear constraint."""
        coeffs = tuple(-v for v in self.slope) + (1.0,)
        return LinearConstraint(coeffs, -self.intercept, self.theta)

    def with_type(self, query_type: str) -> "HalfPlaneQuery":
        """Same half-plane, different selection type."""
        return HalfPlaneQuery(query_type, self.slope, self.intercept, self.theta)

    def __repr__(self) -> str:
        slope = self.slope[0] if len(self.slope) == 1 else self.slope
        return (
            f"{self.query_type}(x{self.dimension} {self.theta} "
            f"{slope}·x' + {self.intercept:g})"
        )


@dataclass(frozen=True)
class AppQuery:
    """One approximation query produced by T1 (Section 4.1).

    ``slope_index`` points into the predefined slope set, so the query is
    executable by the restricted technique of Section 3.
    """

    query_type: str
    slope_index: int
    intercept: float
    theta: Theta


#: Largest tuple id: the heap record stores it as a u32
#: (:func:`~repro.storage.serialize.encode_tuple`).
MAX_TID = 0xFFFFFFFF


class AnswerSet(Set):
    """An immutable set of tuple ids, held as one sorted uint32 array.

    It compares, tests membership and combines like a ``frozenset`` of
    ints (iteration yields Python ints in ascending order), at 4 bytes
    per id: a Python set of a few hundred ids costs about 60 (its hash
    table plus one int object per id), so callers that keep many
    answers keep them compactly. Ids outside ``[0, MAX_TID]`` raise
    :class:`~repro.errors.QueryError`.

    Example::

        >>> ids = AnswerSet([7, 3, 7])
        >>> ids == {3, 7}, 7 in ids, list(ids)
        (True, True, [3, 7])
        >>> sorted(ids | {1})
        [1, 3, 7]
    """

    __slots__ = ("_tids",)

    def __init__(self, tids: Iterable[int] = ()) -> None:
        if not isinstance(tids, np.ndarray):
            tids = np.fromiter(tids, dtype=np.int64)
        tids = np.unique(tids)
        if tids.size and (tids[0] < 0 or tids[-1] > MAX_TID):
            raise QueryError(f"tuple ids must lie in [0, {MAX_TID}]")
        self._tids = tids.astype(np.uint32)

    @classmethod
    def _from_iterable(cls, items: Iterable[int]) -> "AnswerSet":
        return cls(items)

    def __contains__(self, tid: object) -> bool:
        try:
            at = int(np.searchsorted(self._tids, tid))
        except (TypeError, ValueError):
            return False
        return at < self._tids.size and bool(self._tids[at] == tid)

    def __iter__(self):
        return iter(self._tids.tolist())

    def __len__(self) -> int:
        return self._tids.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnswerSet):
            return np.array_equal(self._tids, other._tids)
        return super().__eq__(other)

    __hash__ = None  # type: ignore[assignment]  # unhashable, like set

    def __reduce__(self):
        return AnswerSet, (self._tids,)

    def __repr__(self) -> str:
        return f"AnswerSet({self._tids.tolist()})"


_NO_ANSWERS = AnswerSet()


class QueryResult:
    """Answer set plus execution diagnostics.

    ``ids`` is the oracle-exact answer (tuple ids) as an
    :class:`AnswerSet`; the remaining fields are the per-query
    measurements the paper's experiments report. Assigning any
    iterable of ids to ``ids`` stores it as an :class:`AnswerSet`.

    The batch path hands answers over as numpy tid arrays
    (:meth:`set_lazy_ids`); the :class:`AnswerSet` is built on first
    access to :attr:`ids`, so callers that only count never merge the
    columns. Either way the observable value of ``ids`` is identical.

    Example::

        >>> from repro.storage.stats import IOStats
        >>> res = QueryResult(ids={3, 7}, technique="exact", candidates=4,
        ...                   false_hits=2, refinement_pages=1,
        ...                   io=IOStats(logical_reads=5))
        >>> res.page_accesses      # all pages touched
        5
        >>> res.index_accesses     # minus refinement fetches (Thm 3.1 metric)
        4
        >>> res.cached             # True when a batch cache served it
        False
    """

    __slots__ = (
        "_ids",
        "_lazy_tids",
        "_lazy_extra",
        "technique",
        "candidates",
        "false_hits",
        "duplicates",
        "accepted_without_refinement",
        "refinement_pages",
        "summary_pages",
        "cached",
        "io",
        "trace",
    )

    def __init__(
        self,
        ids: Iterable[int] | None = None,
        technique: str = "",
        candidates: int = 0,
        false_hits: int = 0,
        duplicates: int = 0,
        accepted_without_refinement: int = 0,
        refinement_pages: int = 0,
        cached: bool = False,
        io: IOStats | None = None,
        trace: object | None = None,
    ) -> None:
        self._ids: AnswerSet | None = _NO_ANSWERS
        if ids is not None:
            self.ids = ids
        #: Deferred answer columns (numpy tid array + refined extras).
        self._lazy_tids = None
        self._lazy_extra: set[int] | None = None
        self.technique = technique
        self.candidates = candidates
        self.false_hits = false_hits
        self.duplicates = duplicates
        self.accepted_without_refinement = accepted_without_refinement
        self.refinement_pages = refinement_pages
        #: The part of ``refinement_pages`` that read the dual summary
        #: file (the T1/T2 settle step); the rest are heap pages.
        self.summary_pages = 0
        #: True when a batch executor served this answer from its result
        #: cache (the counts above describe the original execution; ``io``
        #: is zero — a cache hit touches no pages).
        self.cached = cached
        self.io = io if io is not None else IOStats()
        #: Root span of the query's trace when tracing was active, else
        #: None (see :mod:`repro.obs`).
        self.trace = trace

    # ------------------------------------------------------------------
    # answer set (lazy columnar handoff)
    # ------------------------------------------------------------------
    @property
    def ids(self) -> AnswerSet:
        """The answer set; built from columns on first access."""
        if self._ids is None:
            tids = self._lazy_tids
            columns = list(tids) if isinstance(tids, (list, tuple)) else [tids]
            if self._lazy_extra:
                columns.append(
                    np.fromiter(self._lazy_extra, dtype=np.int64,
                                count=len(self._lazy_extra))
                )
            self._ids = (
                AnswerSet(np.concatenate(columns)) if columns else _NO_ANSWERS
            )
            self._lazy_tids = None
            self._lazy_extra = None
        return self._ids

    @ids.setter
    def ids(self, value: Iterable[int]) -> None:
        self._ids = value if isinstance(value, AnswerSet) else AnswerSet(value)
        self._lazy_tids = None
        self._lazy_extra = None

    def set_lazy_ids(self, tids, extra: set[int] | None = None) -> None:
        """Adopt a columnar answer: a numpy tid array (or a list or
        tuple of disjoint tid arrays, one per shard) plus refined
        extras. ``ids`` builds the :class:`AnswerSet` only when read."""
        self._ids = None
        self._lazy_tids = tids
        self._lazy_extra = extra

    @property
    def answer_count(self) -> int:
        """``len(ids)`` without building the :class:`AnswerSet`."""
        if self._ids is not None:
            return len(self._ids)
        # Accepted tids are distinct and refined extras come from the
        # disjoint boundary segment of the same sweep (shard columns are
        # disjoint partitions), so the union is free of overlap.
        tids = self._lazy_tids
        if isinstance(tids, (list, tuple)):
            size = sum(int(column.size) for column in tids)
        else:
            size = int(tids.size)
        return size + (len(self._lazy_extra) if self._lazy_extra else 0)

    @property
    def page_accesses(self) -> int:
        """Total pages touched: index traversal plus refinement fetches."""
        return self.io.logical_reads + self.io.logical_writes

    @property
    def index_accesses(self) -> int:
        """Index-structure page accesses only (descent + sweeps/nodes).

        This is the metric of the paper's Theorems 3.1/4.1/4.2, which
        charge the candidate stream at ``T/B`` — i.e. leaf pages, not
        per-record fetches.
        """
        return self.page_accesses - self.refinement_pages

    def __repr__(self) -> str:
        return (
            f"<QueryResult {self.technique} |ids|={self.answer_count} "
            f"candidates={self.candidates} false_hits={self.false_hits} "
            f"duplicates={self.duplicates} pages={self.page_accesses}>"
        )
