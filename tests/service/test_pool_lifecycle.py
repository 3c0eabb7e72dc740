"""The shard pool's life cycle, seen from the service.

A ``processes`` service owns one :class:`~repro.shard.pool.ShardPool`.  It
starts lazily at the latest snapshot, serves only its own generation, and
each commit moves it forward in place.  What these tests pin:

* ``close()`` stops the workers, and the next query starts them again;
* a reader pinned to a generation the pool has moved past answers in
  process, ``==`` what the pool answered at that generation, and is counted
  in ``stats()["versions"]["pinned_fallbacks"]``; the pool neither deals
  nor sends such a batch;
* a commit whose in-place move fails still stands: it is returned, and the
  next query starts the pool at the new snapshot and answers ``==`` cold
  ``HypeR`` on the new data;
* a list ``prepare`` binds every plan at one snapshot, even if a commit
  lands while the first plan is built.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.core.whatif import WhatIfEngine
from repro.datasets import make_german_syn
from repro.lang import parse_query
from repro.service.versions import Commit
from repro.shard.pool import ShardPool
from tests.service.test_batch_groups import fields

CONFIG = EngineConfig(regressor="linear")
QUERY = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(160, seed=5)


def pooled(dataset, **options) -> HypeRService:
    return HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, execution="processes", n_shards=2,
        **options,
    )


def cold(service: HypeRService, dataset) -> tuple:
    return fields(HypeR(service.database, service.causal_dag, CONFIG).what_if(parse_query(QUERY)))


def flip_status(service: HypeRService) -> Commit:
    status = service.database["Credit"].column("Status")
    return service.update_relation_columns({"Credit": {"Status": 5 - status}})


def test_close_then_execute_starts_a_fresh_pool(dataset):
    service = pooled(dataset, result_cache_size=0)
    try:
        before = fields(service.execute(QUERY))
        service.close()
        assert service.stats()["pool"] is None
        after = fields(service.execute(QUERY))
        assert service.stats()["pool"] is not None
        assert after == before == cold(service, dataset)
    finally:
        service.close()


def test_a_reader_pinned_past_a_commit_answers_in_process(dataset):
    service = pooled(dataset, result_cache_size=0)
    try:
        at_pool = fields(service.execute(QUERY))  # crosses the pool at generation 0
        assert service.stats()["pool"]["generation"] == 0
        snapshot = service.retain()
        try:
            flip_status(service)
            assert service.stats()["pool"]["generation"] == 1
            pinned = fields(service.execute(QUERY, generation=snapshot.generation))
        finally:
            service.release(snapshot)
        assert service.stats()["versions"]["pinned_fallbacks"] == 1
        assert pinned == at_pool
        assert fields(service.execute(QUERY)) == cold(service, dataset) != at_pool
    finally:
        service.close()


def test_a_batch_at_another_generation_is_neither_dealt_nor_sent(dataset):
    pool = ShardPool(dataset.database, dataset.causal_dag, CONFIG, n_shards=2, inline=True)
    try:
        query = parse_query(QUERY)
        assert pool.run_batch([query], generation=1) is None
        assert not pool._dealer._homes and pool.n_broadcasts == 0
        assert pool.mode == "unstarted"
        (answer,) = pool.run_batch([query], generation=0)
        cold_answer = HypeR(dataset.database, dataset.causal_dag, CONFIG).what_if(query)
        assert fields(answer) == fields(cold_answer)
        assert len(pool._dealer._homes) == 1 and pool.n_broadcasts == 1
    finally:
        pool.close()


@pytest.mark.parametrize("commit", ["update_database", "invalidate", "update_causal_dag"])
def test_a_failed_pool_move_keeps_the_commit(dataset, monkeypatch, commit):
    service = pooled(dataset, result_cache_size=0)
    try:
        service.execute(QUERY)  # the workers run
        generation = service.generation

        def fail(*_args, **_kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(service._pool, "apply_update", fail)
        if commit == "update_database":
            committed = flip_status(service)
            assert isinstance(committed, Commit)
            assert committed == {"Credit"} and committed.generation == generation + 1
        elif commit == "invalidate":
            service.invalidate()
        else:
            service.update_causal_dag(dataset.causal_dag)
        monkeypatch.undo()
        assert service.generation == generation + 1
        assert fields(service.execute(QUERY)) == cold(service, dataset)
        assert service.stats()["pool"]["generation"] == generation + 1
    finally:
        service.close()


def test_a_list_prepare_binds_every_plan_at_one_snapshot(dataset, monkeypatch):
    texts = [
        "USE Credit UPDATE(Savings) = 2 * PRE(Savings) OUTPUT AVG(POST(CreditAmount))",
        "USE Credit WHEN Age >= 30 UPDATE(Savings) = 2 * PRE(Savings) OUTPUT AVG(POST(Credit))",
    ]
    service = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
    snapshot = service.retain()  # generation 0 stays live, plans and all
    prepare = WhatIfEngine.prepare

    def committing(engine, *args, **kwargs):
        if service.generation == snapshot.generation:
            flip_status(service)
        return prepare(engine, *args, **kwargs)

    monkeypatch.setattr(WhatIfEngine, "prepare", committing)
    try:
        plans = service.prepare(texts)
        monkeypatch.undo()
        assert service.generation == snapshot.generation + 1
        bound = list(snapshot.state.plans.values())
        assert len(bound) == 2 and all(any(plan is b for b in bound) for plan in plans)
        assert not service.versions.latest.state.plans
    finally:
        service.release(snapshot)
