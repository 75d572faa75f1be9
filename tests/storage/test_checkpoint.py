"""Checkpoint catalog tests: save/commit/open, ping-pong slots, crashes."""

import os

import pytest

from repro.workloads.generator import make_relation
from repro.core.planner import DualIndexPlanner
from repro.errors import FaultInjectedError, RecoveryError, StorageError
from repro.core.slope_set import SlopeSet
from repro.shard.sharded import ShardedDualIndex
from repro.storage import (
    FileDisk,
    Pager,
    commit_planner,
    open_engine,
    open_planner,
    open_sharded,
    read_catalog,
    save_engine,
    save_planner,
    save_sharded,
    write_catalog,
)
from repro.storage.checkpoint import CATALOG_FILES
from tests.conftest import assert_tids_invert_catalog

SLOPES = SlopeSet.uniform_angles(4)


def _build(n=40, pager=None, dynamic=False):
    return DualIndexPlanner.build(
        make_relation(n, "small", seed=5), SLOPES, pager=pager, dynamic=dynamic)


def _queries(planner):
    from repro.bench import harness
    return harness.queries_for(16, "small", "EXIST", 4, count=12)


def _answers(planner, queries):
    return [sorted(planner.query(q).ids) for q in queries]


def test_catalog_ping_pong_and_fallback(tmp_path):
    path = str(tmp_path)
    write_catalog(path, {"kind": "x", "n": 1}, 3)
    write_catalog(path, {"kind": "x", "n": 2}, 5)
    payload, seq, generation = read_catalog(path)
    assert (payload["n"], seq, generation) == (2, 5, 2)
    # corrupt the newer slot: recovery falls back to the older one
    with open(os.path.join(path, CATALOG_FILES[generation % 2]), "r+b") as fh:
        fh.seek(40)
        fh.write(b"\xff\xff")
    payload, seq, generation = read_catalog(path)
    assert (payload["n"], seq, generation) == (1, 3, 1)


def test_read_catalog_without_any_slot_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no valid catalog"):
        read_catalog(str(tmp_path))


def test_save_and_open_snapshot(tmp_path):
    """An in-memory planner snapshots to disk and reopens identically."""
    planner = _build()
    queries = _queries(planner)
    expected = _answers(planner, queries)
    path = str(tmp_path / "engine")
    save_planner(planner, path)

    reopened = open_planner(path)
    assert reopened.index.size == planner.index.size
    assert _answers(reopened, queries) == expected
    assert_tids_invert_catalog(reopened.index)
    # allocator cloned: both sides hand out the same next page id
    assert reopened.index.pager.disk.allocate() == \
        planner.index.pager.disk.allocate()
    reopened.index.pager.disk.close()


def test_save_into_occupied_dir_rejected(tmp_path):
    path = str(tmp_path / "engine")
    save_planner(_build(), path)
    with pytest.raises(StorageError, match="already holds a page file"):
        save_planner(_build(), path)


def test_live_save_commit_and_reopen(tmp_path):
    path = str(tmp_path / "engine")
    disk = FileDisk(path, durability="wal")
    planner = _build(pager=Pager(disk=disk), dynamic=True)
    queries = _queries(planner)
    save_planner(planner, path)  # in-place: commit + checkpoint

    from repro.verify.workload import bounded_tuple
    import random
    rng = random.Random(3)
    tid = planner.index.size + 100
    planner.insert(tid, bounded_tuple(rng))
    planner.delete(3)
    commit_planner(planner, path)  # WAL-only durability point
    expected = _answers(planner, queries)
    disk.close()

    reopened = open_planner(path)
    assert _answers(reopened, queries) == expected
    assert_tids_invert_catalog(reopened.index)
    reopened.index.pager.disk.close()


def test_commit_requires_live_wal_disk(tmp_path):
    with pytest.raises(StorageError, match="durability='wal'"):
        commit_planner(_build(), str(tmp_path))


def test_crash_between_commit_and_catalog_rolls_back(tmp_path):
    """The catalog write is the commit point: a WAL commit without a
    catalog update is invisible after reopen."""
    path = str(tmp_path / "engine")
    disk = FileDisk(path, durability="wal")
    planner = _build(pager=Pager(disk=disk), dynamic=True)
    queries = _queries(planner)
    save_planner(planner, path)
    expected = _answers(planner, queries)

    from repro.verify.workload import bounded_tuple
    import random
    planner.insert(10_000, bounded_tuple(random.Random(4)))
    planner.index.pager.flush()
    disk.commit()  # durable in the WAL — but no catalog names it
    disk.close()

    reopened = open_planner(path)
    assert _answers(reopened, queries) == expected  # insert rolled back
    reopened.index.pager.disk.close()


def test_crash_mid_checkpoint_recovers(tmp_path):
    """A checkpoint that dies mid-fold reopens to the saved state (the
    catalog was written first, so the WAL replays the folded batch)."""
    path = str(tmp_path / "engine")
    disk = FileDisk(path, durability="wal")
    planner = _build(pager=Pager(disk=disk), dynamic=True)
    queries = _queries(planner)
    expected = _answers(planner, queries)

    disk.fail_checkpoint_after = 2  # die after two page folds
    with pytest.raises(FaultInjectedError):
        save_planner(planner, path)
    disk.close()

    reopened = open_planner(path)
    assert _answers(reopened, queries) == expected
    reopened.index.pager.disk.close()


def test_sharded_save_open_and_engine_dispatch(tmp_path):
    engine = ShardedDualIndex.build(make_relation(60, "small", seed=9), SLOPES,
                                    shards=3)
    queries = _queries(engine)
    expected = [sorted(engine.query(q).ids) for q in queries]
    path = str(tmp_path / "fleet")
    save_engine(engine, path)
    assert read_catalog(path)[0]["kind"] == "sharded"
    assert "catalog.1" in os.listdir(path)  # first write is generation 1

    reopened = open_sharded(path)
    assert len(reopened.planners) == 3
    assert [sorted(reopened.query(q).ids) for q in queries] == expected
    for p in reopened.planners:
        p.index.pager.disk.close()

    again = open_engine(path)  # kind-dispatching front door
    assert hasattr(again, "planners")
    for p in again.planners:
        p.index.pager.disk.close()


def test_open_sharded_ignores_legacy_fanout_key(tmp_path):
    """Manifests written before the fan-out mode was removed carry a
    ``"fanout"`` key; opening ignores it and new manifests omit it."""
    relation = make_relation(60, "small", seed=9)
    engine = ShardedDualIndex.build(relation, SLOPES, shards=2)
    path = str(tmp_path / "fleet")
    save_sharded(engine, path)
    payload, seq, _generation = read_catalog(path)
    assert "fanout" not in payload
    write_catalog(path, dict(payload, fanout="process"), seq)

    reopened = open_sharded(path)
    reference = DualIndexPlanner.build(relation, SLOPES)
    queries = _queries(reference)
    batch = reopened.query_batch(queries)
    assert [sorted(r.ids) for r in batch.results] == _answers(
        reference, queries)
    for p in reopened.planners:
        p.index.pager.disk.close()


def test_open_planner_rejects_wrong_kind(tmp_path):
    engine = ShardedDualIndex.build(make_relation(20, "small", seed=9), SLOPES,
                                    shards=2)
    path = str(tmp_path / "fleet")
    save_sharded(engine, path)
    with pytest.raises(StorageError, match="expected 'planner'"):
        open_planner(path)
