"""``repro shard-bench`` end to end on a small relation.

The bench runs the sharded batch path and the shared assembler
(``repro.exec.merge_partials``) it times, so a break in either fails
here and not only in the benchmark job. Its critical-path gate
(4 shards faster than 1) is timing-bound and is not asserted.
"""

from repro.bench.shard_bench import SHARD_COUNTS, run_bench


def test_small_run_matches_unsharded():
    payload = run_bench(n=200, repeats=1, queries_per_type=2)
    rows = payload["query"]
    assert [row["shards"] for row in rows] == list(SHARD_COUNTS)
    for row in rows:
        assert row["answers_match_unsharded"], row
        assert row["page_accesses"] > 0, row
