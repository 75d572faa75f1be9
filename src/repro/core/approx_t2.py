"""Technique T2: single-tree approximation with handicap values
(Sections 4.2–4.3 — the paper's main contribution).

The query is answered with *one* B+-tree — the one of the slope nearest
to the query slope — by two opposite-direction leaf sweeps that touch
disjoint key ranges, so no duplicates can occur:

1. the *primary sweep* runs in the query's natural direction from the
   query intercept, collecting result candidates and, from every visited
   leaf, the handicap aggregate of the strip the query slope falls in;
2. the combined handicap (``low(q)`` / ``high(q)``) bounds how far a
   *secondary sweep* must run in the opposite direction to pick up every
   tuple the discarded second app-query would have found.

Both sweeps produce candidates only; the planner refines them against
the exact predicate (false hits remain possible, duplicates do not).
:func:`handicap_sweep` is the one implementation of the two sweeps, on
the tree's cached leaf columns; the d-dimensional planner
(:mod:`repro.core.ddim`, Section 4.4) runs it too, with its per-cell
handicap slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.btree.tree import BPlusTree
from repro.core.dual_index import (
    AUX_HIGH_NEXT,
    AUX_HIGH_PREV,
    AUX_LOW_NEXT,
    AUX_LOW_PREV,
    DualIndex,
)
from repro.core.query import HalfPlaneQuery
from repro.errors import QueryError
from repro.obs import trace as obs
from repro.storage.disk import NULL_PAGE


@dataclass
class HandicapSweep:
    """What one primary plus secondary sweep collected.

    ``candidates`` holds distinct rids (int64): the two sweeps cover
    disjoint key ranges of one tree.
    """

    candidates: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    primary_leaves: int = 0
    secondary_leaves: int = 0
    handicap: float = math.nan  # low(q) or high(q)


@dataclass
class T2Trace(HandicapSweep):
    """Diagnostics of one T2 execution."""

    anchor_index: int = -1
    side: str = ""


def t2_candidates(index: DualIndex, query: HalfPlaneQuery) -> T2Trace:
    """Candidate RIDs for an interior-slope query via the handicap search.

    Raises :class:`QueryError` when the query slope is outside
    ``(min S, max S)`` — the planner falls back to T1 there.
    """
    a = query.slope_2d
    anchor = index.slopes.anchor_for(a)
    if anchor is None:
        raise QueryError(
            f"T2 interior case needs min S < {a} < max S "
            f"(S spans [{index.slopes[0]}, {index.slopes[-1]}])"
        )
    anchor_index, side = anchor
    trees, upward = index.trees_for(query.query_type, query.theta)
    tree = trees[anchor_index]
    if upward:  # EXIST(q(>=)) in B^up / ALL(q(>=)) in B^down
        slot = AUX_LOW_NEXT if side == "next" else AUX_LOW_PREV
    else:  # ALL(q(<=)) in B^up / EXIST(q(<=)) in B^down
        slot = AUX_HIGH_NEXT if side == "next" else AUX_HIGH_PREV
    trace = T2Trace(anchor_index=anchor_index, side=side)
    # Extension A7: when the query intercept lies beyond every
    # assignment key, no tuple can require the secondary sweep — the
    # end leaf's aggregate (which covers an unbounded assignment range)
    # would otherwise force one.
    extrema = index.assign_extrema.get((tree.name, side))
    handicap_sweep(
        trace, tree, query.intercept, upward, slot, index.margin, extrema
    )
    return trace


def handicap_sweep(
    out: HandicapSweep,
    tree: BPlusTree,
    intercept: float,
    upward: bool,
    slot: int,
    margin: Callable[[float], float],
    extrema: tuple[float, float] | None = None,
) -> None:
    """The primary and secondary sweep of one tree, filling ``out``.

    The primary sweep is one merged sweep from the margin-widened,
    quantized intercept to the end of the leaf chain; the handicap is
    the min (upward) or max (downward) of the visited leaves' aux
    ``slot``. The secondary sweep walks the other way from the first
    primary leaf, collecting keys in ``[low(q) - margin, start)`` (or
    ``(start, high(q) + margin]``). That leaf's columns are already at
    hand, so it costs no second access (the paper: "the search accesses
    a leaf node only once"). ``extrema`` is the tree's ``(min, max)``
    assignment key range for extension A7: a start beyond it skips the
    secondary sweep.
    """
    if upward:
        start = tree.quantize(intercept - margin(intercept))
        with obs.span("sweep.primary", tree=tree.name):
            primary = tree.sweep_up_multi([start])
        handicap = min(
            (leaf.aux[slot] for leaf in primary.columns), default=math.inf
        )
        needed = handicap < start and (extrema is None or start <= extrema[1])
    else:
        start = tree.quantize(intercept + margin(intercept))
        with obs.span("sweep.primary", tree=tree.name):
            primary = tree.sweep_down_multi([start])
        handicap = max(
            (leaf.aux[slot] for leaf in primary.columns), default=-math.inf
        )
        needed = handicap > start and (extrema is None or start >= extrema[0])
    out.primary_leaves = primary.leaves
    out.handicap = handicap
    segments = [primary.rids[primary.offsets[0]:]]
    if needed:  # never with no primary leaf: the handicap is then ±inf
        if upward:
            bound = tree.quantize(handicap - margin(handicap))
        else:
            bound = tree.quantize(handicap + margin(handicap))
        leaf = primary.columns[0]
        with obs.span("sweep.secondary", tree=tree.name):
            while True:
                keys = leaf.keys
                obs.incr("comparisons", int(keys.size))
                if upward:
                    lo = np.searchsorted(keys, bound, side="left")
                    hi = np.searchsorted(keys, start, side="left")
                    done = keys.size > 0 and keys[0] < bound
                    pid = leaf.prev
                else:
                    lo = np.searchsorted(keys, start, side="right")
                    hi = np.searchsorted(keys, bound, side="right")
                    done = keys.size > 0 and keys[-1] > bound
                    pid = leaf.next
                segments.append(leaf.rids[lo:hi])
                if done or pid == NULL_PAGE:
                    break
                leaf = tree.leaf_arrays(pid)
                out.secondary_leaves += 1
    out.candidates = np.concatenate(segments)
