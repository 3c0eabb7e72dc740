"""What a node and the coordinator do when a body, a node or a phase fails.

A node answers a malformed ``/v1/partial`` or ``/v1/cluster/update`` body
with a 400 and a stale generation with a 409; the coordinator fails a query
no node can answer, aborts a commit no node stages, fails one no node flips,
marks a node that fails its flip, and keeps ``stats()`` up while a node is
down.
"""

from __future__ import annotations

import pytest

from repro.api import endpoints as api
from repro.api.client import DeadlineExceeded
from repro.api.core import PayloadError, RequestDeadline
from repro.cluster import ClusterCoordinator, ClusterError
from repro.cluster.shardserver import ShardServer
from repro.exceptions import QuerySemanticsError

from .conftest import make_cluster

QUERY = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
HOWTO = (
    "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)


@pytest.fixture()
def node(dataset, config):
    node = ShardServer(dataset.database, dataset.causal_dag, config, shard_index=0, n_shards=1)
    yield node
    node.close()


@pytest.fixture()
def cluster(dataset, config):
    with make_cluster(dataset.database, dataset.causal_dag, config, n_shards=1, n_nodes=2,
                      failure_threshold=1) as booted:
        yield booted


def status_of(call, *args) -> tuple[int, str]:
    with pytest.raises((api.ApiError, PayloadError)) as raised:
        call(*args)
    error = raised.value
    return error.status, error.envelope.message if isinstance(error, api.ApiError) else str(error)


def test_a_shard_index_outside_the_shards_is_refused(dataset, config):
    with pytest.raises(QuerySemanticsError, match="shard index 1 out of range for 1 shard"):
        ShardServer(dataset.database, dataset.causal_dag, config, shard_index=1, n_shards=1)


@pytest.mark.parametrize(
    "body, message",
    [
        ({"kind": "answers", "generation": "x"}, "invalid generation 'x'"),
        ({"kind": "answers", "queries": "not a list"}, "kind 'answers' needs a 'queries' list"),
        ({"kind": "whatif", "query": " "}, "field 'query' must be a non-empty string"),
        ({"kind": "whatif", "query": HOWTO}, "kind 'whatif' needs a what-if query"),
    ],
)
def test_a_malformed_partial_is_a_400(node, body, message):
    status, text = status_of(node.partial_payload, body)
    assert status == 400 and message in text


def test_an_unparsable_query_is_answered_in_its_place(node):
    body = node.partial_payload({"kind": "answers", "queries": ["NOT A QUERY", QUERY]})
    failed, answered = body["answers"]
    assert failed["error"]["code"] == "query_syntax" and "error" not in answered


def test_a_spent_budget_stops_a_whatif_partial(node):
    with pytest.raises(api.ApiError) as raised:
        node.partial_payload({"kind": "whatif", "query": QUERY}, deadline=RequestDeadline(0))
    assert raised.value.status == 504


def test_a_phase_out_of_order_is_refused(node, dataset):
    status, text = status_of(node.cluster_update_payload, {"phase": "commit", "generation": 1})
    assert status == 400 and "unknown cluster-update phase 'commit'" in text
    assert status_of(node.stage, 2, {})[0] == 409  # one past the next generation
    node.stage(1, {})
    # the node's own service commits in between: the staged database is stale
    node.service.update_relation_columns(
        {"Credit": {"Status": dataset.database["Credit"].column("Status")}}
    )
    assert status_of(node.flip, 1)[0] == 409


def test_no_node_answering_is_a_cluster_error(cluster):
    for index in range(2):
        cluster.stop_node(index)
    with pytest.raises(ClusterError, match="none of nodes .* could answer"):
        cluster.coordinator.execute(QUERY)
    with pytest.raises(ClusterError, match="update aborted: no node staged it"):
        cluster.coordinator.update_relation_columns({"Credit": {"Status": [1.0] * 200}})


def test_a_stopped_node_reports_its_stats_error(cluster):
    cluster.stop_node(1)  # not yet marked: no query has failed on it
    rows = cluster.coordinator.stats()["cluster"]["nodes"]
    assert "stats_error" in rows[1] and "stats_error" not in rows[0]


def failing_flips(cluster, nodes):
    for index in nodes:
        shard = cluster.shards[index]

        def refuse(body, _original=shard.cluster_update_payload):
            if body["phase"] == "flip":
                raise RuntimeError("flip lost")
            return _original(body)

        shard.cluster_update_payload = refuse


def test_a_node_that_fails_its_flip_is_marked_out(cluster, dataset):
    failing_flips(cluster, [1])
    commit = cluster.coordinator.update_relation_columns(
        {"Credit": {"Status": dataset.database["Credit"].column("Status")}}
    )
    assert commit.generation == 1
    assert [n["healthy"] for n in cluster.coordinator.stats()["cluster"]["nodes"]] == [True, False]


def test_a_commit_no_node_flips_fails(cluster, dataset):
    failing_flips(cluster, [0, 1])
    with pytest.raises(ClusterError, match="update failed: no node flipped it"):
        cluster.coordinator.update_relation_columns(
            {"Credit": {"Status": dataset.database["Credit"].column("Status")}}
        )


def test_a_leg_of_the_wrong_length_is_refused(cluster, monkeypatch):
    for node in cluster.coordinator._nodes:
        async def short(path, payload, *, deadline=None):
            return {"answers": []}

        monkeypatch.setattr(node.client, "post_json", short)
    with pytest.raises(ClusterError, match="malformed answers leg"):
        cluster.coordinator.execute(QUERY)


def test_a_node_deadline_is_the_requests_504(cluster, monkeypatch):
    for node in cluster.coordinator._nodes:
        async def late(path, payload, *, deadline=None):
            raise DeadlineExceeded("the node's 504")

        monkeypatch.setattr(node.client, "post_json", late)
    with pytest.raises(api.ApiError) as raised:
        cluster.coordinator.execute(QUERY, deadline=RequestDeadline(60_000))
    assert raised.value.status == 504


def test_a_coordinator_starts_on_first_use_and_refuses_once_closed(cluster, config):
    with ClusterCoordinator(cluster.topology, config) as scoped:
        assert scoped.execute(QUERY).value == cluster.coordinator.execute(QUERY).value
    with pytest.raises(ClusterError, match="coordinator is closed"):
        scoped.execute(QUERY)
    lazy = ClusterCoordinator(cluster.topology, config)
    try:
        assert lazy.execute(QUERY).value == cluster.coordinator.execute(QUERY).value
    finally:
        lazy.close()
