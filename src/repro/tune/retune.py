"""Rebuild-to-learned-``S``: the offline and online retune paths.

:func:`propose` turns a slope-log snapshot into a :class:`TuneDecision`
(learned set + predicted win, no side effects). :func:`rebuild_planner`
re-indexes a live planner's exact tuple set under a new slope set —
the answer-preserving step both paths share. :func:`apply_tune` is the
offline path (``repro tune --apply``): open a durable data-dir, rebuild
under the learned set, save to a *new* data-dir through the PR 7
checkpoint machinery (the original stays untouched — rollback is "keep
pointing at the old directory"). The serve layer's ``--auto-tune``
drives the same :func:`rebuild_planner` on a background thread and
hot-swaps the result behind the engine-thread drain (see
:mod:`repro.serve.server`).

Every rebuild preserves tuple ids bit-exactly: the new index answers
must be indistinguishable from the old (only page counts may change),
which :mod:`repro.verify.differential` enforces each fuzz round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.constraints.relation import GeneralizedRelation
from repro.core.planner import DualIndexPlanner
from repro.core.slope_set import SlopeSet
from repro.obs.metrics import get_registry
from repro.obs.slopelog import SlopeLogSnapshot
from repro.tune.cost import predicted_improvement
from repro.tune.learner import TuneError, learn_slopes


@dataclass
class TuneDecision:
    """A learned slope set plus the model's case for (not) applying it."""

    learned: SlopeSet
    current: SlopeSet
    prediction: dict = field(default_factory=dict)
    evidence: int = 0  #: logged queries backing the decision

    @property
    def worthwhile(self) -> bool:
        """True when the model predicts a real win (>= 5% cheaper)."""
        return self.prediction.get("predicted_cost_ratio", 1.0) <= 0.95

    def to_dict(self) -> dict:
        return {
            "learned_slopes": list(self.learned),
            "current_slopes": list(self.current),
            "evidence": self.evidence,
            "worthwhile": self.worthwhile,
            **self.prediction,
        }


def propose(
    snapshot: SlopeLogSnapshot,
    current: SlopeSet | Sequence[float],
    k: int | None = None,
) -> TuneDecision:
    """Learn a slope set from logged traffic and price it against the
    current one. Pure: no index is touched. ``k`` defaults to the
    current set's size (same tree count, so space stays comparable)."""
    current = current if isinstance(current, SlopeSet) else SlopeSet(current)
    k = k if k is not None else len(current)
    learned = learn_slopes(snapshot, k=k)
    decision = TuneDecision(
        learned=learned,
        current=current,
        prediction=predicted_improvement(snapshot, current, learned),
        evidence=snapshot.count,
    )
    get_registry().counter(
        "tune_proposals", "Slope-set tuning decisions computed"
    ).inc()
    return decision


def relation_from_planner(planner: DualIndexPlanner) -> GeneralizedRelation:
    """The planner's live tuple set, under its original tuple ids.

    Rebuilding from the heap (not from any retained build input) is
    what makes online retune correct for dynamic engines: inserts and
    deletes since build time are all in the heap and nowhere else.
    """
    index = planner.index
    relation = GeneralizedRelation(name=index.name)
    pairs = []
    for tid, rid in sorted(index.rid_of.items()):
        stored_tid, t = index.fetch_tuple(rid)
        if stored_tid != tid:
            raise TuneError(
                f"heap/catalog drift: rid {rid} stores tuple "
                f"{stored_tid}, catalog says {tid}"
            )
        pairs.append((tid, t))
    # Preserve sparse ids (the constructor renumbers densely).
    for tid, t in pairs:
        relation._tuples[tid] = t
        if relation._dimension is None:
            relation._dimension = t.dimension
    relation._next_id = (max(relation._tuples) + 1) if pairs else 0
    return relation


def rebuild_planner(
    planner: DualIndexPlanner,
    slopes: SlopeSet | Sequence[float],
    relation: GeneralizedRelation | None = None,
) -> DualIndexPlanner:
    """Re-index a planner's live tuples under a new slope set.

    The rebuilt planner keeps the original's technique, dynamic flag,
    key width, pivot and name; only ``S`` (and therefore the tree
    forest and sweep costs) changes. Tuple ids are preserved, so
    answers are bit-identical by construction — the differential
    fuzzer cross-checks that every round.

    ``relation`` accepts a pre-extracted tuple set (from
    :func:`relation_from_planner`). The serve layer's online retune
    uses this split: extraction runs on the engine thread (serialized
    with mutations), the rebuild itself on a background thread that
    touches nothing shared with the live engine.
    """
    if relation is None:
        relation = relation_from_planner(planner)
    rebuilt = DualIndexPlanner.build(
        relation,
        slopes,
        key_bytes=planner.index.codec.key_bytes,
        technique=planner.technique,
        dynamic=planner.index.dynamic,
        pivot_x=planner.pivot_x,
        name=planner.index.name,
    )
    registry = get_registry()
    registry.counter(
        "tune_rebuilds", "Index rebuilds under a learned slope set"
    ).inc()
    registry.counter(
        "tune_rebuild_tuples", "Tuples re-indexed by slope-set rebuilds"
    ).inc(len(relation))
    return rebuilt


def apply_tune(
    data_dir: str,
    out_dir: str,
    slopes: SlopeSet | Sequence[float],
) -> DualIndexPlanner:
    """Offline ``repro tune --apply``: open the durable engine in
    ``data_dir``, rebuild it under ``slopes``, and save the result as a
    fresh data-dir at ``out_dir`` (checkpointed snapshot; the source
    directory is never written). Returns the rebuilt planner, already
    homed at ``out_dir``."""
    from repro.storage.checkpoint import open_planner

    if data_dir == out_dir:
        raise TuneError(
            "apply_tune writes a new data-dir; out_dir must differ from "
            "data_dir (rollback = keep using the old directory)"
        )
    source = open_planner(data_dir)
    try:
        rebuilt = rebuild_planner(source, slopes)
        rebuilt.save(out_dir)
    finally:
        source.index.pager.disk.close()
    return rebuilt
