"""The dual summary file: RID -> slot mapping, page accounting, and
staying in step with the heap through updates, save/open, WAL replay
and a crash mid-insert."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import ALL, EXIST, DualIndex, DualIndexPlanner, HalfPlaneQuery
from repro.core import SlopeSet
from repro.errors import FaultInjectedError
from repro.geometry.predicates import evaluate_relation
from repro.storage import FileDisk, HeapFile, KeyCodec, Pager, open_planner
from repro.storage.heap import pack_rid
from repro.storage.summary import SummaryFile
from repro.verify.faults import CrashPoint, arm_crash
from repro.verify.invariants import check_dual_index
from repro.verify.workload import bounded_tuple
from repro.workloads import make_relation

SLOPES = SlopeSet.uniform_angles(3)


def _t1_t2_queries(rng: random.Random, count: int = 16) -> list:
    """Interior (T2) and wrap (T1) slopes, every type and operator."""
    lo, hi = SLOPES[0], SLOPES[-1]
    out = []
    for n in range(count):
        slope = rng.uniform(lo, hi) if n % 2 else hi + rng.uniform(0.1, 6.0)
        out.append(HalfPlaneQuery(
            rng.choice([ALL, EXIST]), slope, rng.uniform(-40.0, 40.0),
            rng.choice([">=", "<="]),
        ))
    return out


def _assert_oracle(planner, live: dict, queries) -> None:
    state = sorted(live.items())
    for query in queries:
        res = planner.query(query)
        assert res.technique in ("T1", "T2")
        assert res.ids == evaluate_relation(
            state, query.query_type, query.slope_2d, query.intercept,
            query.theta,
        ), query


class TestSummaryFile:
    def test_rid_to_slot_mapping_and_page_reads(self):
        pager = Pager()
        heap = HeapFile(pager)
        summaries = SummaryFile(pager, width=14, key_bytes=4)
        assert summaries.per_page == 1024 // 56
        rids = [heap.insert(bytes(200)) for _ in range(60)]
        rows = np.arange(60 * 14, dtype=np.float64).reshape(60, 14)
        summaries.write(rids, rows, range(100, 160))
        assert summaries.page_count == -(-60 // summaries.per_page)
        assert summaries.tids_of(np.asarray(rids[::-1])).tolist() == list(
            range(159, 99, -1)
        )
        with pager.measure() as scope:
            got, pages = summaries.read(rids[::-1])
        assert np.array_equal(got, rows[::-1])
        assert pages == summaries.page_count == scope.delta.logical_reads
        with pager.measure() as scope:
            got, pages = summaries.read(rids[:2])
        assert pages == scope.delta.logical_reads == 1

    def test_records_without_summary_read_nan(self):
        pager = Pager()
        summaries = SummaryFile(pager, width=6, key_bytes=8)
        summaries.write([pack_rid(7, 2)], np.ones((1, 6)), [0])
        got, pages = summaries.read([pack_rid(7, 0), pack_rid(9, 0),
                                     pack_rid(7, 2)])
        assert np.isnan(got[:2]).all()
        assert (got[2] == 1.0).all()
        assert pages == 1

    def test_state_round_trip(self):
        pager = Pager()
        summaries = SummaryFile(pager, width=6)
        summaries.write([pack_rid(3, 0), pack_rid(3, 1), pack_rid(5, 0)],
                        np.eye(3, 6), [0, 1, 2])
        restored = SummaryFile(pager, width=6)
        restored.restore_state(summaries.state_payload())
        rids = [pack_rid(3, 1), pack_rid(5, 0)]
        assert np.array_equal(restored.read(rids)[0], summaries.read(rids)[0])
        restored.write([pack_rid(5, 1)], np.full((1, 6), 2.0), [3])
        assert (restored.read([pack_rid(5, 1)])[0] == 2.0).all()


class TestInStepWithHeap:
    def test_insert_delete_equal_fresh_derivation(self):
        rng = random.Random(17)
        relation = make_relation(60, "small", seed=17)
        index = DualIndex(Pager(), SLOPES, KeyCodec(4), dynamic=True)
        index.build(relation)
        deleted = []
        for n in range(25):
            index.insert(1000 + n, bounded_tuple(rng))
        for tid in rng.sample(sorted(index.rid_of), 20):
            deleted.append(index.rid_of[tid])
            index.delete(tid)
        check_dual_index(index)  # every live summary equals a fresh one
        rows, _pages = index.summaries.read(deleted)
        assert np.isnan(rows).all()

    def test_old_catalog_without_summaries_still_exact(self):
        """A catalog written before the summary file existed derives
        the file from a heap scan on restore: it verifies, answers stay
        exact and the settle step reads it."""
        relation = make_relation(50, "small", seed=4)
        planner = DualIndexPlanner.build(relation, SLOPES)
        live = dict(iter(relation))
        for tid in (3, 17):             # gaps in the rebuilt slots
            planner.delete(tid)
            del live[tid]
        payload = planner.index.catalog_payload()
        del payload["summaries"]
        index = DualIndex(planner.index.pager, SLOPES, KeyCodec(4))
        index.restore_catalog(payload)
        check_dual_index(index)
        restored = DualIndexPlanner(index)
        queries = _t1_t2_queries(random.Random(4))
        _assert_oracle(restored, live, queries)
        assert any(restored.query(q).summary_pages for q in queries)


class TestDurable:
    def test_save_open(self, tmp_path):
        relation = make_relation(80, "small", seed=8)
        planner = DualIndexPlanner.build(relation, SLOPES)
        queries = _t1_t2_queries(random.Random(8))
        path = str(tmp_path / "engine")
        planner.save(path)
        reopened = open_planner(path)
        try:
            assert reopened.index.summaries.page_count == (
                planner.index.summaries.page_count
            )
            _assert_oracle(reopened, dict(iter(relation)), queries)
            check_dual_index(reopened.index)
        finally:
            reopened.index.pager.disk.close()

    def test_commit_then_wal_replay(self, tmp_path):
        rng = random.Random(9)
        relation = make_relation(60, "small", seed=9)
        path = str(tmp_path / "engine")
        disk = FileDisk(path, durability="wal")
        planner = DualIndexPlanner.build(
            relation, SLOPES, pager=Pager(disk=disk), dynamic=True
        )
        planner.save(path)
        live = dict(iter(relation))
        for n in range(12):
            t = bounded_tuple(rng)
            planner.insert(500 + n, t)
            live[500 + n] = t
        for tid in rng.sample(sorted(live), 8):
            planner.delete(tid)
            del live[tid]
        planner.commit()
        disk.close()
        reopened = open_planner(path)
        try:
            _assert_oracle(reopened, live, _t1_t2_queries(rng))
            check_dual_index(reopened.index)
        finally:
            reopened.index.pager.disk.close()

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_crash_mid_insert(self, tmp_path, at):
        """A torn WAL append during an insert rolls it back whole: the
        reopened summaries match the committed heap."""
        rng = random.Random(at)
        relation = make_relation(40, "small", seed=at)
        path = str(tmp_path / "engine")
        disk = FileDisk(path, durability="wal")
        planner = DualIndexPlanner.build(
            relation, SLOPES, pager=Pager(disk=disk), dynamic=True
        )
        planner.save(path)
        live = dict(iter(relation))
        live[900] = bounded_tuple(rng)
        planner.insert(900, live[900])
        planner.delete(3)
        del live[3]
        planner.commit()
        arm_crash(disk, CrashPoint("wal-append", at=at))
        with pytest.raises(FaultInjectedError):
            for n in range(5):
                planner.insert(901 + n, bounded_tuple(rng))
            planner.commit()
        disk.close()
        reopened = open_planner(path)
        try:
            assert reopened.index.size == len(live)
            _assert_oracle(reopened, live, _t1_t2_queries(rng))
            check_dual_index(reopened.index)
        finally:
            reopened.index.pager.disk.close()
