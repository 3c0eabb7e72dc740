"""The cluster contract: cluster answers are bitwise equal to unsharded ones.

A 3-shard cluster of real shard-server processes-on-ports answers every
query bitwise-identically to a single-node :class:`HypeRService` over the
same database, whether a query of either kind
is answered whole by the service of the node it was dealt to or (that node
being ahead, mid-flip) at the generation its service still pins, and
keeps doing so when a node is killed mid-batch and across two-phase updates.
"""

from __future__ import annotations

import asyncio
from dataclasses import fields

import pytest

from repro import EngineConfig, HypeRService
from repro.api import HypeRClient
from repro.api import endpoints as api
from repro.api.aclient import AsyncHypeRClient
from repro.api.client import ApiStatusError, ServerDeadlineExceeded
from repro.aserve import BackgroundAsyncServer

from .conftest import make_cluster

WHATIF_TEXTS = [
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit UPDATE(Status) = 1 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit UPDATE(CreditAmount) = 0.8 * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit WHEN Age > 30 UPDATE(Status) = 3 OUTPUT SUM(POST(Credit)) "
    "FOR PRE(Age) > 25",
]
HOWTO_TEXT = (
    "USE Credit HOWTOUPDATE Status, Housing "
    "LIMIT 1 <= POST(Status) <= 4 AND 1 <= POST(Housing) <= 3 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
SYNTAX_ERROR_TEXT = "garbage"
SEMANTIC_ERROR_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Nope)) FOR POST(Nope) = 1"
)


def wire_payload(result) -> dict:
    """The public answer minus the one field that is a clock reading."""
    payload = result.payload()
    payload.pop("runtime_seconds")
    return payload


def cluster_stats(coordinator) -> dict:
    return coordinator.stats()["cluster"]


def status_plus_one(dataset) -> dict:
    status = dataset.database["Credit"].column("Status")
    return {"Credit": {"Status": [min(4.0, float(v) + 1.0) for v in status]}}


@pytest.fixture(scope="module")
def cluster_and_single(dataset):
    config = EngineConfig(regressor="linear")
    single = HypeRService(dataset.database, dataset.causal_dag, config)
    with make_cluster(dataset.database, dataset.causal_dag, config) as cluster:
        yield cluster.coordinator, single
    single.close()


class TestBitwiseParity:
    def test_what_if_parity(self, cluster_and_single):
        coordinator, single = cluster_and_single
        for text in WHATIF_TEXTS:
            merged = coordinator.execute(text)
            direct = single.execute(text)
            assert merged.value == direct.value, text
            assert merged.aggregate == direct.aggregate
            assert merged.n_view_tuples == direct.n_view_tuples

    def test_what_if_answers_equal_field_for_field(self, cluster_and_single):
        coordinator, single = cluster_and_single
        batch = coordinator.execute_many(WHATIF_TEXTS)
        for text, batched in zip(WHATIF_TEXTS, batch):
            direct = single.execute(text)
            for answered in (coordinator.execute(text), batched):
                assert wire_payload(answered) == wire_payload(direct), text
                for field in fields(direct):
                    # the cluster path ships no per-block arrays, and
                    # each side reads its own clock
                    if field.name in ("block_contributions", "runtime_seconds"):
                        continue
                    assert getattr(answered, field.name) == getattr(
                        direct, field.name
                    ), (text, field.name)
                assert list(answered.block_contributions) == []

    def test_how_to_parity(self, cluster_and_single):
        coordinator, single = cluster_and_single
        merged = coordinator.execute(HOWTO_TEXT)
        direct = single.execute(HOWTO_TEXT)
        assert merged.objective_value == direct.objective_value
        assert merged.baseline_value == direct.baseline_value
        assert merged.verified_value == direct.verified_value
        assert [u.attribute for u in merged.recommended_updates] == [
            u.attribute for u in direct.recommended_updates
        ]

    def test_exhaustive_howto_proxies_unsharded(self, cluster_and_single):
        coordinator, single = cluster_and_single
        merged = coordinator.execute(HOWTO_TEXT, exhaustive=True)
        direct = single.execute(HOWTO_TEXT, exhaustive=True)
        assert wire_payload(merged) == wire_payload(direct)

    def test_batch_parity(self, cluster_and_single):
        coordinator, single = cluster_and_single
        merged = coordinator.execute_many(WHATIF_TEXTS)
        direct = [single.execute(text) for text in WHATIF_TEXTS]
        assert [r.value for r in merged] == [r.value for r in direct]


@pytest.fixture(scope="module")
def dataset_and_config(dataset, config):
    return dataset, config


@pytest.fixture()
def single(dataset_and_config):
    dataset, config = dataset_and_config
    service = HypeRService(dataset.database, dataset.causal_dag, config)
    yield service
    service.close()


def boot(dataset_and_config, **kwargs):
    dataset, config = dataset_and_config
    return make_cluster(dataset.database, dataset.causal_dag, config, **kwargs)


@pytest.fixture()
def cluster(dataset_and_config):
    with boot(dataset_and_config) as booted:
        yield booted


@pytest.fixture()
def client(cluster):
    """A client of the coordinator's own asyncio front door."""
    with BackgroundAsyncServer(cluster.coordinator, max_inflight=4) as front:
        with HypeRClient(*front.address) as connected:
            yield connected


def how_to_scalars(result) -> tuple:
    """The public answer, and the two fields of a how-to it leaves out."""
    return wire_payload(result), result.verified_value, result.recommended_updates


class TestFailover:
    def test_replica_failover_is_exact_mid_batch(self, dataset_and_config, single):
        expected = [single.execute(text).value for text in WHATIF_TEXTS]
        with boot(dataset_and_config, n_shards=3, n_nodes=6, failure_threshold=1) as cluster:
            coord = cluster.coordinator
            assert [coord.execute(t).value for t in WHATIF_TEXTS] == expected
            # kill one shard server mid-batch; answers must stay bitwise-exact
            cluster.stop_node(0)
            for _ in range(2):
                assert [coord.execute(t).value for t in WHATIF_TEXTS] == expected
            stats = coord.stats()["cluster"]
            assert stats["failovers"] >= 1
            assert stats["healthy_nodes"] == 5
            dead = [n for n in stats["nodes"] if not n["healthy"]]
            assert [n["index"] for n in dead] == [0]

    def test_unreplicated_node_loss_is_survived(self, dataset_and_config, single):
        expected = [wire_payload(single.execute(text)) for text in WHATIF_TEXTS]
        with boot(dataset_and_config, n_shards=2, n_nodes=2, failure_threshold=1) as cluster:
            coord = cluster.coordinator
            coord.execute(WHATIF_TEXTS[0])
            coord.execute(HOWTO_TEXT)
            cluster.stop_node(1)
            # any node answers any query: the sub-batch dealt to the dead
            # node is re-dealt to the survivor, which answers them all, bitwise
            assert [wire_payload(r) for r in coord.execute_many(WHATIF_TEXTS)] == expected
            stats = cluster_stats(coord)
            assert stats["failovers"] >= 1
            assert [n["index"] for n in stats["nodes"] if not n["healthy"]] == [1]
            assert [wire_payload(coord.execute(t)) for t in WHATIF_TEXTS] == expected
            # a how-to too: it is one whole query like the rest
            survived, direct = coord.execute(HOWTO_TEXT), single.execute(HOWTO_TEXT)
            assert how_to_scalars(survived) == how_to_scalars(direct)

    def test_the_probe_readmits_a_node_only_at_the_coordinators_generation(
        self, dataset_and_config, monkeypatch
    ):
        """The health probe is the one path that puts a failed node back: a
        node whose ``/health`` reports the coordinator's generation is
        re-admitted, one at another generation stays out."""
        monkeypatch.setattr("repro.cluster.coordinator._PROBE_INTERVAL", 0.01)
        with boot(dataset_and_config, n_shards=2, n_nodes=2) as cluster:
            coord = cluster.coordinator
            current, behind = coord._nodes
            probed = asyncio.Queue()
            loop = coord._loop

            async def health_elsewhere(*, deadline=None):
                probed.put_nowait(None)
                return {"status": "ok", "generation": coord.generation + 1}

            behind.client.health = health_elsewhere

            async def both_out_then_two_rounds():
                current.healthy = behind.healthy = False
                for _ in range(2):  # the node at another generation is probed twice
                    await probed.get()

            asyncio.run_coroutine_threadsafe(both_out_then_two_rounds(), loop).result(timeout=60)
            assert current.healthy and current.failures == 0
            assert not behind.healthy
            assert [n["healthy"] for n in cluster_stats(coord)["nodes"]] == [True, False]


class TestQueryScatter:
    """A query is one leg to one node, at the coordinator's pinned generation."""

    def test_node_ahead_of_the_coordinator_falls_back_to_the_pinned_generation(
        self, dataset_and_config, single, cluster
    ):
        old = [wire_payload(single.execute(text)) for text in WHATIF_TEXTS]
        old_how_to = how_to_scalars(single.execute(HOWTO_TEXT))
        assignment = status_plus_one(dataset_and_config[0])
        coord = cluster.coordinator
        # the flip window, held open: node 0 has committed generation 1,
        # the coordinator (and nodes 1, 2) still stand at generation 0
        cluster.shards[0].stage(1, assignment)
        cluster.shards[0].flip(1)
        assert cluster.shards[0].service.generation == 1 and coord.generation == 0
        # three plans seen for the first time are homed on nodes 0, 1, 2
        # in turn: node 0 answers the one it is dealt at generation 0, which
        # it still pins, the other two at their latest
        distinct = [0, 2, 3]
        singles = [coord.execute(WHATIF_TEXTS[i]) for i in distinct]
        assert [wire_payload(r) for r in singles] == [old[i] for i in distinct]
        assert cluster_stats(coord)["fallbacks"] == 1
        # another constant of the first plan goes home to node 0 again,
        # and is answered at the pinned generation 0 again
        assert wire_payload(coord.execute(WHATIF_TEXTS[1])) == old[1]
        assert cluster_stats(coord)["fallbacks"] == 2
        batch = coord.execute_many(WHATIF_TEXTS)
        assert [wire_payload(r) for r in batch] == old
        stats = cluster_stats(coord)
        assert stats["fallbacks"] >= 3
        # being ahead is not a failure: nothing failed over, all healthy
        assert stats["failovers"] == 0 and stats["healthy_nodes"] == 3
        assert [n["failures"] for n in stats["nodes"]] == [0, 0, 0]
        assert "hyper_cluster_fallbacks_total" in coord.metrics.render()
        # a how-to is one whole query like the rest: its plan, the fourth,
        # is homed on node 0, and answered there at generation 0
        assert how_to_scalars(coord.execute(HOWTO_TEXT)) == old_how_to
        after = cluster_stats(coord)
        assert after["fallbacks"] == stats["fallbacks"] + 1
        assert after["failovers"] == 0 and after["healthy_nodes"] == 3
        # the answers above are the old generation's, and that is observable
        single.update_relation_columns(assignment)
        new = [wire_payload(single.execute(text)) for text in WHATIF_TEXTS]
        assert all(a["value"] != b["value"] for a, b in zip(old, new))
        assert how_to_scalars(single.execute(HOWTO_TEXT)) != old_how_to

    def test_a_generation_no_longer_retained_fails_over_to_a_node_still_there(
        self, dataset_and_config, single
    ):
        texts = [WHATIF_TEXTS[0], HOWTO_TEXT]
        with boot(dataset_and_config, retained_generations=1) as cluster:
            coord = cluster.coordinator
            coord.execute_many(texts)  # the two plans are homed on nodes 0 and 1
            for shard in cluster.shards[:2]:
                shard.stage(1, status_plus_one(dataset_and_config[0]))
                shard.flip(1)
                assert shard.pinned_generations() == [1]
            # their homes answer 409 stale_generation; each leg moves along the
            # ring until it reaches node 2, which still stands at generation 0
            for text, scalars in zip(texts, (wire_payload, how_to_scalars)):
                failovers = cluster_stats(coord)["failovers"]
                assert scalars(coord.execute(text)) == scalars(single.execute(text))
                stats = cluster_stats(coord)
                assert stats["failovers"] > failovers and stats["fallbacks"] == 0

    def test_mixed_batch_keeps_input_order_and_error_semantics(
        self, dataset_and_config, single, cluster
    ):
        dataset, config = dataset_and_config
        batch = [
            WHATIF_TEXTS[0],
            SEMANTIC_ERROR_TEXT,
            HOWTO_TEXT,
            WHATIF_TEXTS[1],
            SYNTAX_ERROR_TEXT,
            WHATIF_TEXTS[2],
            WHATIF_TEXTS[3],
            HOWTO_TEXT.replace("POST(Status) <= 4", "POST(Status) <= 3"),
        ]
        direct = single.execute_many(batch, return_errors=True)

        def same_answers(outcomes) -> None:
            assert len(outcomes) == len(batch)
            for index in (0, 3, 5, 6):
                assert wire_payload(outcomes[index]) == wire_payload(direct[index])
            for index in (2, 7):
                assert how_to_scalars(outcomes[index]) == how_to_scalars(direct[index])

        coord = cluster.coordinator
        legs = cluster.spy_on_legs()
        outcomes = coord.execute_many(batch, return_errors=True)
        same_answers(outcomes)
        # what-ifs and how-tos ride the same answers legs: at most one per node
        nodes = [node for node, _body, _deadline in legs]
        assert len(nodes) == len(set(nodes)) == cluster_stats(coord)["scatters"]
        assert {body["kind"] for _node, body, _deadline in legs} == {"answers"}
        # the node's semantic error and the coordinator's own parse error
        # answer exactly what a single node answers
        for index in (1, 4):
            assert isinstance(outcomes[index], Exception)
            assert api.envelope_for(outcomes[index]) == api.envelope_for(direct[index])
        assert api.envelope_for(outcomes[1])[1].code == "query_semantics"
        assert api.envelope_for(outcomes[4])[1].code == "query_syntax"
        # without return_errors the first error of the batch is raised
        with pytest.raises(api.ApiError) as excinfo:
            coord.execute_many(batch)
        assert api.envelope_for(excinfo.value) == api.envelope_for(direct[1])
        with pytest.raises(api.ApiError):
            coord.execute(SEMANTIC_ERROR_TEXT)
        assert coord.execute_many([]) == []
        # the 2-worker pool deals the same batch whole too, in one scatter
        with HypeRService(
            dataset.database, dataset.causal_dag, config, execution="processes", n_shards=2
        ) as pool:
            outcomes = pool.execute_many(batch, return_errors=True)
            same_answers(outcomes)
            # the worker's semantic error and the parent's parse error answer
            # exactly what threads and the cluster answer
            for index in (1, 4):
                assert api.envelope_for(outcomes[index]) == api.envelope_for(direct[index])
            stats = pool.stats()["pool"]
            assert stats["n_broadcasts"] == 2  # the start-up ping, then the batch
            # a how-to crosses back as its answer, not as rows: two fresh ones
            pool.execute_many([batch[i].replace("<= 3", "<= 2", 1) for i in (2, 7)])
            moved = pool.stats()["pool"]["bytes_from_workers"] - stats["bytes_from_workers"]
            assert (0 < moved or stats["mode"] == "inline") and moved < 2 * 4096

    def test_one_leg_per_what_if_and_one_count_per_query(self, cluster):
        coord = cluster.coordinator

        def counters() -> tuple[int, int, int]:
            return (
                cluster_stats(coord)["scatters"],
                int(coord.metrics.snapshot()["hyper_queries_total"]),
                coord.stats()["n_queries"],
            )

        legs = cluster.spy_on_legs()  # every answers leg, in arrival order

        def nodes() -> list[int]:
            return [node for node, _body, _deadline in legs]

        # three plans (texts 0 and 1 share one), homed on nodes 0, 1, 2
        for text in WHATIF_TEXTS:
            before = counters()
            coord.execute(text)
            assert counters() == tuple(n + 1 for n in before)
        assert nodes() == [0, 0, 1, 2]
        # a batch over all three plans: at most one leg per node, one
        # count per query
        del legs[:]
        before = counters()
        coord.execute_many(WHATIF_TEXTS * 2)
        scatters, queries, n_queries = counters()
        assert sorted(nodes()) == [0, 1, 2] and scatters - before[0] == 3
        assert queries - before[1] == n_queries - before[2] == 2 * len(WHATIF_TEXTS)
        # a smaller batch than the ring sends no empty leg: two plans go
        # to their two homes, the third node is not asked
        del legs[:]
        before = counters()
        coord.execute_many([WHATIF_TEXTS[2], WHATIF_TEXTS[3]])
        assert sorted(nodes()) == [1, 2] and counters()[0] - before[0] == 2
        assert cluster_stats(coord)["fallbacks"] == 0

    def test_deadline_is_checked_before_the_leg_and_forwarded_on_it(self, cluster):
        coord = cluster.coordinator
        seen = cluster.spy_on_legs()
        before = cluster_stats(coord)["scatters"]
        with pytest.raises(api.ApiError) as excinfo:
            coord.execute(WHATIF_TEXTS[0], deadline=api.RequestDeadline(0))
        assert excinfo.value.status == 504
        assert excinfo.value.envelope.code == "deadline_exceeded"
        assert cluster_stats(coord)["scatters"] == before and not seen
        assert coord.execute(WHATIF_TEXTS[0], deadline=api.RequestDeadline(60_000))
        ((_node, body, deadline),) = seen
        assert deadline is not None
        assert body["kind"] == "answers" and body["queries"] == [WHATIF_TEXTS[0]]
        assert 0 < body["deadline_ms"] <= 60_000

    def test_prepare_warms_every_node(self, cluster, client):
        services = [shard.service for shard in cluster.shards]

        def built() -> list[int]:
            return [s.stats()["caches"]["estimators"]["misses"] for s in services]

        answer = client.prepare([WHATIF_TEXTS[0], HOWTO_TEXT, WHATIF_TEXTS[3]])
        assert (answer.prepared, answer.generation) == (3, 0)
        # one /v1/prepare per node carried all three; nothing was executed
        assert cluster_stats(cluster.coordinator)["scatters"] == 3
        assert [s.stats()["n_queries"] for s in services] == [0] * 3
        with pytest.raises(ApiStatusError) as excinfo:
            client.prepare([WHATIF_TEXTS[0], SEMANTIC_ERROR_TEXT])
        assert excinfo.value.status == 400
        # wherever a query is dealt next, its estimator is fitted and the
        # kernel entry of its view (all three read one) is there
        fits, before = [len(s.caches.estimators) for s in services], built()
        assert min(fits) >= 2, fits
        assert [s.stats()["caches"]["kernels"]["size"] for s in services] == [1] * 3
        for _ in cluster.shards:
            cluster.coordinator.execute(WHATIF_TEXTS[0])
        cluster.coordinator.execute(HOWTO_TEXT)
        assert [len(s.caches.estimators) for s in services] == fits and built() == before


class TestUpdates:
    def test_two_phase_update_stays_bitwise_exact(self, dataset_and_config, single, cluster):
        assignment = status_plus_one(dataset_and_config[0])
        coord = cluster.coordinator
        changed = coord.update_relation_columns(assignment)
        single.update_relation_columns(assignment)
        assert changed == frozenset({"Credit"})
        assert coord.generation == 1
        for text in WHATIF_TEXTS:
            assert coord.execute(text).value == single.execute(text).value, text
        # every shard node committed the same generation
        for shard in cluster.shards:
            assert shard.service.generation == 1
            assert 1 in shard.pinned_generations()

    def test_a_commit_needs_no_shard_cover(self, dataset_and_config, single):
        assignment = status_plus_one(dataset_and_config[0])
        # replication factor 1: node 2 is the only replica of shard 2
        with boot(dataset_and_config, failure_threshold=1) as cluster:
            coord = cluster.coordinator
            cluster.stop_node(2)
            changed = coord.update_relation_columns(assignment)
            single.update_relation_columns(assignment)
            assert changed == {"Credit"} and changed.generation == coord.generation == 1
            assert [s.service.generation for s in cluster.shards] == [1, 1, 0]

            def out() -> list[int]:
                return [n["index"] for n in cluster_stats(coord)["nodes"] if not n["healthy"]]

            assert out() == [2]
            # the two nodes left answer every query, at the new generation
            for text in WHATIF_TEXTS:
                assert wire_payload(coord.execute(text)) == wire_payload(single.execute(text))
            assert how_to_scalars(coord.execute(HOWTO_TEXT)) == how_to_scalars(
                single.execute(HOWTO_TEXT)
            )
            assert out() == [2]

    def test_update_validation_error_leaves_generation_unchanged(self, cluster):
        coord = cluster.coordinator
        before = coord.execute(WHATIF_TEXTS[0]).value
        with pytest.raises(api.ApiError):
            coord.update_relation_columns({"Credit": {"Status": [1.0, 2.0]}})
        assert coord.generation == 0
        assert all(s.service.generation == 0 for s in cluster.shards)
        assert coord.execute(WHATIF_TEXTS[0]).value == before


class TestFrontDoor:
    def test_public_api_unchanged_through_coordinator(self, single, client):
        expected = single.execute(WHATIF_TEXTS[0]).value
        assert client.query(WHATIF_TEXTS[0]).value == expected
        items = client.batch_collect([WHATIF_TEXTS[0], "garbage"])
        assert items[0].ok and items[0].result.value == expected
        assert not items[1].ok and items[1].error.code == "query_syntax"
        snapshot = client.stats()
        assert snapshot.generation == 0
        assert snapshot.sections["cluster"]["healthy_nodes"] == 3
        assert "hyper_cluster_scatters_total" in client.metrics()
        assert client.health()["status"] == "ok"

    def test_deadline_decrements_across_hops(self, client):
        # an already-expired budget dies at the coordinator (504)
        with pytest.raises(ServerDeadlineExceeded):
            client.query(WHATIF_TEXTS[0], deadline_ms=1)
        # a generous budget survives both hops
        assert client.query(WHATIF_TEXTS[0], deadline_ms=60_000)

    def test_query_errors_surface_verbatim(self, client):
        with pytest.raises(ApiStatusError) as excinfo:
            client.query(SEMANTIC_ERROR_TEXT)
        assert excinfo.value.status == 400


class TestStaleGeneration:
    def test_shard_answers_409_for_unknown_generation(self, cluster):
        address = cluster.topology.nodes[0]

        async def ask(generation: int):
            body = {"api_version": "v1", "kind": "whatif", "query": WHATIF_TEXTS[0]}
            async with AsyncHypeRClient(address.host, address.port) as client:
                return await client.post_json(
                    "/v1/partial", {**body, "generation": generation}
                )

        assert asyncio.run(ask(0))["generation"] == 0
        with pytest.raises(ApiStatusError) as excinfo:
            asyncio.run(ask(7))
        assert excinfo.value.status == 409
        assert excinfo.value.code == "stale_generation"
