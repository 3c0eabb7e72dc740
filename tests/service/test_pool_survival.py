"""The shard pool must survive invalidation — the workers move in place.

``invalidate()`` and ``update_causal_dag()`` used to tear the pool down and
rebuild it lazily (a multi-second stall under ``--execution processes``).
They now ship the new state to the running workers via
``ShardPool.apply_update``; these tests pin the pool *object identity*
across every invalidation path, one in-place move per commit (a failed move
would restart the workers under the same object, and add none), and check
answers stay bitwise stable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)


@pytest.fixture(scope="module")
def pool_service():
    dataset = make_german_syn(140, seed=3)
    service = HypeRService(
        dataset.database,
        dataset.causal_dag,
        EngineConfig(regressor="linear"),
        execution="processes",
        n_shards=2,
    )
    service.start_pool()
    yield service, dataset
    service.close()


class TestPoolSurvival:
    def test_invalidate_keeps_the_running_pool(self, pool_service):
        service, _dataset = pool_service
        baseline = float(service.execute(QUERY_TEXT).value)
        pool = service._pool
        assert pool is not None
        moves = pool.n_updates
        service.invalidate()
        assert service._pool is pool  # moved in place, not rebuilt
        assert pool.n_updates == moves + 1
        assert float(service.execute(QUERY_TEXT).value) == baseline

    def test_update_causal_dag_keeps_the_running_pool(self, pool_service):
        service, dataset = pool_service
        baseline = float(service.execute(QUERY_TEXT).value)
        pool = service._pool
        assert pool is not None
        moves = pool.n_updates
        service.update_causal_dag(dataset.causal_dag)
        assert service._pool is pool
        assert pool.n_updates == moves + 1
        assert float(service.execute(QUERY_TEXT).value) == baseline

    def test_data_update_keeps_the_running_pool_and_answers_move(self, pool_service):
        service, _dataset = pool_service
        pool = service._pool
        assert pool is not None
        moves = pool.n_updates
        before = float(service.execute(QUERY_TEXT).value)
        relation = service.database["Credit"]
        flipped = 1.0 - np.asarray(relation.column("Credit"), dtype=float)
        changed = service.update_relation_columns(
            {"Credit": {"Credit": [float(v) for v in flipped]}}
        )
        assert changed == {"Credit"}
        assert service._pool is pool
        assert pool.n_updates == moves + 1
        after = float(service.execute(QUERY_TEXT).value)
        assert after != before  # the workers really saw the new column
        # restore and confirm the original answer comes back, same pool
        service.update_relation_columns(
            {"Credit": {"Credit": [float(1.0 - v) for v in flipped]}}
        )
        assert service._pool is pool
        assert pool.n_updates == moves + 2
        assert float(service.execute(QUERY_TEXT).value) == before
