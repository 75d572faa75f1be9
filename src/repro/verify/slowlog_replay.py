"""Replay slow-query-log entries against their recorded engine.

A :class:`~repro.obs.slowlog.SlowLogEntry` carries everything needed to
re-ask its question after the fact: the query (the fuzzer's
``query_to_json`` atom form), the engine identity at answer time
(data dir, catalog commit seq / generation, slope-set hash), the answer
fingerprint (id count + digest) and the per-query accounting columns.
Those columns — candidates, false hits, accepted-without-refinement,
refinement pages — are deliberately batch-independent (a query answers
with the same counts alone or coalesced into a 64-query batch), so a
*cold single-query replay* can compare them strictly against what the
server recorded under load.

The replay speaks the differential fuzzer's repro dialect: a payload
with ``"kind": "slowlog"`` round-trips through
:func:`repro.verify.differential.write_repro` /
:func:`~repro.verify.differential.replay_repro`, and findings use the
same ``{"kind": ...}`` shape, so ``repro fuzz --replay`` and ``repro
slowlog --replay`` are two doors into one machine.

An empty findings list means the entry replayed bit-identically:
same answer ids (by digest and count), same technique, same accounting.
"""

from __future__ import annotations

import json

from repro.obs.slowlog import SlowLogEntry, answer_digest, slope_set_hash
from repro.storage.checkpoint import open_engine, read_catalog

#: Accounting counters compared strictly on replay (batch-independent).
ACCOUNTING_FIELDS = (
    "candidates",
    "false_hits",
    "accepted_without_refinement",
    "refinement_pages",
)


def entry_to_repro(entry: SlowLogEntry, data_dir: str | None = None) -> dict:
    """The repro-file payload for one slow-log entry.

    ``data_dir`` overrides the engine location recorded in the entry
    (the log may have been copied off the serving host).
    """
    payload = {
        "kind": "slowlog",
        "entry": entry.to_json(),
    }
    resolved = data_dir or entry.engine.get("data_dir")
    if resolved:
        payload["data_dir"] = resolved
    return payload


def replay_slowlog_case(data: dict) -> list[dict]:
    """The :func:`~repro.verify.differential.replay_repro` branch for
    ``"kind": "slowlog"`` payloads."""
    entry = SlowLogEntry.from_json(data["entry"])
    return replay_entry(
        entry,
        data_dir=data.get("data_dir"),
    )


def replay_entry(
    entry: SlowLogEntry,
    data_dir: str | None = None,
    engine=None,
) -> list[dict]:
    """Re-run one entry's query cold; return divergence findings.

    The engine is reopened from ``data_dir`` (or the entry's recorded
    one) unless an already-open ``engine`` is injected. Identity checks
    run first: a slope-hash or catalog mismatch is reported as
    ``slowlog-engine-mismatch`` and the answer comparison still runs —
    a divergence on a mismatched engine is expected, and the finding
    says why.
    """
    from repro.verify.differential import query_from_json

    findings: list[dict] = []
    if entry.query is None:
        return [{"kind": "slowlog-not-replayable", "op": entry.op}]
    resolved = data_dir or entry.engine.get("data_dir")
    owns_engine = False
    if engine is None:
        if not resolved:
            return [{
                "kind": "slowlog-not-replayable",
                "reason": "no data_dir recorded or given "
                          "(in-memory engines cannot be reopened)",
            }]
        engine = open_engine(resolved)
        owns_engine = True
    try:
        planner = engine.planners[0] if hasattr(engine, "planners") \
            else engine
        live_hash = slope_set_hash(planner.index.slopes)
        recorded_hash = entry.engine.get("slope_hash")
        if recorded_hash and live_hash != recorded_hash:
            findings.append({
                "kind": "slowlog-engine-mismatch",
                "field": "slope_hash",
                "recorded": recorded_hash,
                "live": live_hash,
            })
        if resolved and entry.engine.get("commit_seq") is not None:
            _payload, commit_seq, generation = read_catalog(resolved)
            for fieldname, live in (
                ("commit_seq", commit_seq),
                ("generation", generation),
            ):
                recorded = entry.engine.get(fieldname)
                if recorded is not None and recorded != live:
                    findings.append({
                        "kind": "slowlog-engine-mismatch",
                        "field": fieldname,
                        "recorded": recorded,
                        "live": live,
                    })
        query = query_from_json(entry.query)
        result = engine.query_batch([query]).results[0]
        ids = sorted(result.ids)
        recorded_answer = entry.answer or {}
        if recorded_answer:
            digest = answer_digest(ids)
            if (
                digest != recorded_answer.get("digest")
                or len(ids) != recorded_answer.get("count")
            ):
                findings.append({
                    "kind": "slowlog-answer-divergence",
                    "trace_id": entry.trace_id,
                    "recorded": dict(recorded_answer),
                    "live": {"count": len(ids), "digest": digest},
                })
        if entry.technique and result.technique != entry.technique:
            findings.append({
                "kind": "slowlog-technique-changed",
                "recorded": entry.technique,
                "live": result.technique,
            })
        recorded_acc = {
            k: entry.accounting[k]
            for k in ACCOUNTING_FIELDS if k in entry.accounting
        }
        live_acc = {
            k: getattr(result, k) for k in recorded_acc
        }
        if recorded_acc != live_acc:
            findings.append({
                "kind": "slowlog-accounting-divergence",
                "trace_id": entry.trace_id,
                "recorded": recorded_acc,
                "live": live_acc,
            })
    finally:
        if owns_engine:
            _close(engine)
    return findings


def _close(engine) -> None:
    from repro.serve.server import _close_engine

    _close_engine(engine)


def load_entry(path: str, index: int = 0, by: str = "latency") -> SlowLogEntry:
    """Load the ``index``-th worst entry from a slow-log artifact.

    Accepts either the server's JSONL dump (one entry per line) or a
    single repro-format JSON file with ``"kind": "slowlog"``.
    """
    from repro.obs.slowlog import load_jsonl

    # Both formats start with "{": a repro file is one JSON document, a
    # JSONL dump has one document per line (so whole-file parse fails).
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        if data.get("kind") == "slowlog":
            return SlowLogEntry.from_json(data["entry"])
        if "trace_id" in data:  # a single-entry JSONL dump
            return SlowLogEntry.from_json(data)
        raise ValueError(f"{path}: not a slowlog repro file")
    entries = load_jsonl(path)
    if not entries:
        raise ValueError(f"{path}: empty slow-query log")
    key = {
        "latency": lambda e: e.latency_s,
        "pages": lambda e: e.pages,
    }[by]
    ranked = sorted(entries, key=key, reverse=True)
    if not 0 <= index < len(ranked):
        raise ValueError(
            f"entry index {index} out of range (log has {len(ranked)})")
    return ranked[index]
