"""Writes to a served durable dynamic engine patch its dual surface.

Inserts and deletes arrive over the wire between non-anchor queries
(the vector path); every answer must equal the exact oracle over the
live tuples, the surface must be built once for the engine's life, and
a committed directory must reopen to the same answers.
"""

import random

from repro.core.dual_index import DualIndex
from repro.core.planner import DualIndexPlanner
from repro.core.slope_set import SlopeSet
from repro.geometry.predicates import evaluate_relation
from repro.serve.server import ServeConfig
from repro.serve.testing import ServerThread
from repro.storage.checkpoint import save_planner
from repro.storage.filepager import FileDisk
from repro.storage.pager import Pager
from repro.verify import workload
from repro.verify.differential import tuple_to_json
from repro.workloads.generator import make_relation

N, SIZE = 120, "small"
SLOPES = SlopeSet.uniform_angles(3)


def _oracle(live, query):
    return evaluate_relation(
        sorted(live.items()), query.query_type, query.slope_2d,
        query.intercept, query.theta,
    )


def _served(client, query):
    response = client.query(query)
    assert response["ok"], response
    assert response["technique"] == "vector", response
    return set(response["ids"])


def test_writes_patch_the_served_surface_and_survive_reopen(
    tmp_path, monkeypatch
):
    data_dir = str(tmp_path / "engine")
    relation = make_relation(N, SIZE, seed=5)
    planner = DualIndexPlanner.build(
        relation, SLOPES, pager=Pager(disk=FileDisk(data_dir, durability="wal")),
        dynamic=True,
    )
    save_planner(planner, data_dir)
    planner.index.pager.disk.close()
    live = dict(relation)

    # A build is a surface() call that finds no surface to reuse.
    builds = []
    real = DualIndex.surface

    def surface(index):
        if index._surface is None:
            builds.append(1)
        return real(index)

    monkeypatch.setattr(DualIndex, "surface", surface)

    rng = random.Random(17)
    # A fixed pool asked again after every write: a stale cached answer
    # or an unpatched surface row would show up as a mismatch.
    pool = workload.random_queries(rng, 8, [])
    config = ServeConfig(data_dir=data_dir, max_delay=0.001)
    next_tid = max(live) + 1
    with ServerThread(config=config) as server:
        client = server.client()
        try:
            for query in pool:
                assert _served(client, query) == _oracle(live, query)
            for step in range(24):
                if step % 3 == 2:
                    tid = rng.choice(sorted(live))
                    response = client.request({"op": "delete", "tid": tid})
                    del live[tid]
                else:
                    (t,) = workload.make_tuples(
                        rng, 1, unbounded_fraction=0.3,
                        singleton_fraction=0.2, empty_fraction=0.0,
                    )
                    response = client.request({
                        "op": "insert", "tid": next_tid,
                        "tuple": tuple_to_json(t)["atoms"],
                    })
                    live[next_tid] = t
                    next_tid += 1
                assert response["ok"], response
                for query in rng.sample(pool, 3):
                    assert _served(client, query) == _oracle(live, query), step
            assert client.request({"op": "commit"})["ok"]
        finally:
            client.close()
    assert len(builds) == 1

    with ServerThread(config=ServeConfig(data_dir=data_dir)) as server:
        client = server.client()
        try:
            for query in pool:
                assert _served(client, query) == _oracle(live, query)
        finally:
            client.close()
    assert len(builds) == 2
