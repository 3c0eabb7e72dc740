"""A pool batch pays per plan, not per query: a what-if text crosses the pool,
or reaches a cluster node, as its text, and each side takes one fingerprint per
text key per snapshot.

``HypeRService.execute_many`` keys each text (``parse_keyed``).  In
``processes`` mode the parent fingerprints the first text of a key at its
snapshot, to deal it, and every later text of the key binds that fingerprint
with its own update constants (``PlanCompiler.keyed``).  The worker keys the
texts again and binds each the same way; a cluster node does the same for the
texts of its ``kind="answers"`` leg.  A commit starts each count
again.  The spy wraps ``fingerprint_query`` where the plan compiler calls it
and tells the sides apart by the snapshot each call reads.  A text binds its
plan under its plan group, so a group whose first text is its shape's first
sighting (no text key yet) is bound all the same.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

import repro.service.plan as plan_module
from repro import EngineConfig, HypeRService
from repro.datasets import make_german_syn
from repro.lang.parser import parse_query, parse_uncached
from repro.service.fingerprint import fingerprint_query
from repro.shard.pool import ShardPool, ShardWorkerRuntime
from tests.cluster.conftest import make_cluster
from tests.service.test_batch_groups import fields

CONFIG = EngineConfig(regressor="linear", random_state=0)
#: four plans over four update attributes, so four estimators and four homes
TEMPLATES = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "USE Credit UPDATE(CreditHistory) = {c} * PRE(CreditHistory) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
)


def batch(number: int) -> list[str]:
    """16 texts, 4 per template, whose constants no other batch uses."""
    return [
        template.format(c=round(1 + (4 * number + k) / 64, 6))
        for k in range(4)
        for template in TEMPLATES
    ]


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(400, seed=3)


@pytest.fixture
def spied(monkeypatch) -> list:
    """The snapshot each ``fingerprint_query`` call of a plan compiler reads."""
    snapshots: list = []
    original = plan_module.fingerprint_query

    def spy(query, config, **options):
        snapshots.append(options["reads"].func.__self__)
        return original(query, config, **options)

    monkeypatch.setattr(plan_module, "fingerprint_query", spy)
    return snapshots


def commit(service, dataset, bump: int) -> None:
    investment = dataset.database["Credit"].column("Investment")
    service.update_relation_columns({"Credit": {"Investment": investment + bump}})


def counted(snapshots: list, sides: dict) -> Counter:
    """Calls per side; each side's snapshots are ``sides[name]()``'s states."""
    states = {name: {id(state) for state in of()} for name, of in sides.items()}
    out = Counter()
    for snapshot in snapshots:
        (name,) = [name for name, ids in states.items() if id(snapshot) in ids]
        out[name] += 1
    snapshots.clear()
    return out


def test_a_pool_batch_takes_one_fingerprint_per_text_key_per_snapshot_on_each_side(
    dataset, spied, monkeypatch
):
    crossed: list = []
    handle = ShardWorkerRuntime.handle

    def recorded(runtime, kind, payload):
        if kind == "batch":
            crossed.extend(payload[0])
        return handle(runtime, kind, payload)

    monkeypatch.setattr(ShardWorkerRuntime, "handle", recorded)
    service = HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, execution="processes", n_shards=2
    )
    pool = service._pool
    pool._force_inline = True  # the workers run in this process, where the spy is
    sides = {
        "parent": lambda: [service._state],
        "workers": lambda: [worker.service._state for worker in pool._inline_workers],
    }
    try:
        for number in range(2):  # every shape has its binder on both sides
            service.execute_many(batch(number))
        assert pool.mode == "inline"
        for bump in (1, 2):
            commit(service, dataset, bump)
            spied.clear()
            crossed.clear()
            texts = batch(10 * bump)
            answers = service.execute_many(texts)
            assert counted(spied, sides) == {"parent": 4, "workers": 4}
            assert crossed and all(type(item) is str for item in crossed)
            service.execute_many(batch(10 * bump + 1))  # the same snapshot
            assert counted(spied, sides) == {}
            with HypeRService(service.database, dataset.causal_dag, CONFIG) as alone:
                assert [fields(a) for a in answers] == [fields(alone.execute(t)) for t in texts]
    finally:
        service.close()


def test_a_text_crosses_in_fewer_bytes_than_its_query(dataset):
    texts = batch(0)
    as_text = len(pickle.dumps((1, "batch", (texts, False)), protocol=pickle.HIGHEST_PROTOCOL))
    queries = [parse_query(text) for text in texts]
    as_query = len(pickle.dumps((1, "batch", (queries, False)), protocol=pickle.HIGHEST_PROTOCOL))
    assert as_text < 0.6 * as_query


def test_a_pool_deals_texts_it_is_given_without_fingerprints(dataset):
    texts = batch(3)
    with ShardPool(dataset.database, dataset.causal_dag, CONFIG, n_shards=2, inline=True) as pool:
        answers = pool.run_batch(texts)
    with HypeRService(dataset.database, dataset.causal_dag, CONFIG) as alone:
        assert [fields(a) for a in answers] == [fields(alone.execute(t)) for t in texts]


def test_a_cluster_node_takes_one_fingerprint_per_text_key_per_snapshot(dataset, spied):
    with make_cluster(dataset.database, dataset.causal_dag, CONFIG, n_shards=3) as cluster:
        coordinator = cluster.coordinator
        sides = {"nodes": lambda: [shard.service._state for shard in cluster.shards]}
        for number in range(2):
            coordinator.execute_many(batch(number))
        for bump in (1, 2):
            commit(coordinator, dataset, bump)
            spied.clear()
            texts = batch(10 * bump)
            answers = coordinator.execute_many(texts)
            assert counted(spied, sides) == {"nodes": 4}
            coordinator.execute_many(batch(10 * bump + 1))
            assert counted(spied, sides) == {}
            database = cluster.shards[0].service.database
            with HypeRService(database, dataset.causal_dag, CONFIG) as alone:
                assert [fields(a) for a in answers] == [fields(alone.execute(t)) for t in texts]


def planned(services: list, monkeypatch) -> Counter:
    """Calls of ``what_if_plan`` on the plan compilers of ``services``."""
    calls: Counter = Counter()
    for service in services:
        method = service.compiler.what_if_plan

        def spy(*args, _method=method, **kwargs):
            calls["what_if_plan"] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(service.compiler, "what_if_plan", spy)
    return calls


def test_a_group_whose_first_text_is_a_first_sighting_is_bound_on_a_worker_and_a_node(
    dataset, monkeypatch
):
    # shapes no other test parses: each batch's first text is its shape's
    # first sighting where it is answered, the rest of the group keyed
    pooled, clustered = (
        "USE Credit WHEN Age <= 60 UPDATE(Investment) = {c} * PRE(Investment) "
        "OUTPUT AVG(POST(Credit)) FOR PRE(Housing) >= 1",
        "USE Credit WHEN Age <= 55 UPDATE(Savings) = {c} * PRE(Savings) "
        "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Housing) >= 1",
    )
    constants = [[round(1 + (4 * number + k) / 64, 6) for k in range(4)] for number in (0, 1)]
    with ShardPool(dataset.database, dataset.causal_dag, CONFIG, n_shards=1, inline=True) as pool:
        pool.start()
        calls = planned([pool._inline_workers[0].service], monkeypatch)
        per_batch = []
        for number in range(2):  # the same snapshot
            texts = [pooled.format(c=c) for c in constants[number]]
            # the pool deals by the fingerprints it is given, parsing nothing
            dealt = [fingerprint_query(parse_uncached(text), CONFIG) for text in texts]
            pool.run_batch(texts, fingerprints=dealt)
            per_batch.append(calls.pop("what_if_plan", 0))
        assert per_batch == [1, 0]
    with make_cluster(dataset.database, dataset.causal_dag, CONFIG, n_shards=3) as cluster:
        calls = planned([shard.service for shard in cluster.shards], monkeypatch)
        per_batch = []
        for number in range(2):
            # query objects parse nothing at the coordinator: a node parses their
            # texts, and each node a plan's queries are dealt to plans it once
            queries = [parse_uncached(clustered.format(c=c)) for c in constants[number]]
            cluster.coordinator.execute_many(queries)
            per_batch.append(calls.pop("what_if_plan", 0))
        assert per_batch[1] == 0 < per_batch[0]
