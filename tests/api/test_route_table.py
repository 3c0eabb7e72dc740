"""The endpoint table is the whole routing contract of the door.

Every row must carry what the door dispatches on (a lane, and a handler
unless the door streams the row), every row must actually be answered by the
door, a shard node's two internal rows must exist only on a shard node, and
both backends must implement the declared :class:`ServiceBackend` protocol —
so the next endpoint is one table row and the next backend cannot be
duck-typed in.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import EngineConfig, HypeRService
from repro.api.endpoints import LANES, V1_ENDPOINTS, V1_ROUTES
from repro.aserve import BackgroundAsyncServer
from repro.cluster import ClusterCoordinator, ClusterTopology, NodeAddress
from repro.cluster.shardserver import CLUSTER_UPDATE_PATH, PARTIAL_PATH, ShardServer
from repro.datasets import make_german_syn
from repro.service import ServiceBackend

CONFIG = EngineConfig(regressor="linear")


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=4)


@pytest.fixture(scope="module")
def door(dataset):
    service = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
    with BackgroundAsyncServer(service, max_inflight=2) as server:
        yield server.address


@pytest.fixture(scope="module")
def shard_node(dataset):
    shard = ShardServer(
        dataset.database, dataset.causal_dag, CONFIG, shard_index=0, n_shards=1
    )
    with BackgroundAsyncServer(
        shard.service, app_factory=shard.app_factory, max_inflight=2
    ) as server:
        yield server.address
    shard.close()


def status_of(address, method: str, path: str) -> int:
    conn = http.client.HTTPConnection(*address, timeout=30)
    body = json.dumps({}).encode() if method == "POST" else None
    conn.request(method, path, body=body)
    status = conn.getresponse().status
    conn.close()
    return status


@pytest.mark.parametrize("row", V1_ENDPOINTS, ids=lambda row: row.name)
def test_every_row_has_a_lane_a_route_and_a_handler_unless_streamed(row):
    # the door streams exactly the batch and the job-event rows itself
    assert callable(row.handler) != row.streaming
    assert row.streaming == (row.name in ("batch", "job_events"))
    assert row.lane in LANES
    for path in row.paths:
        endpoint, params = V1_ROUTES.match(row.method, path.replace("{id}", "x"))
        assert endpoint is row
        assert params == ({"id": "x"} if "{id}" in path else {})


@pytest.mark.parametrize("row", V1_ENDPOINTS, ids=lambda row: row.name)
def test_every_row_is_answered_by_the_door(door, row):
    # an empty object is a schema violation on the typed POST rows (400) and
    # the job rows have no journal here (503): anything but "no such route"
    status = status_of(door, row.method, row.path.replace("{id}", "job-missing"))
    assert status in (200, 400, 503), row.name


@pytest.mark.parametrize("path", [PARTIAL_PATH, CLUSTER_UPDATE_PATH])
def test_shard_internal_rows_exist_only_on_a_shard_node(shard_node, door, path):
    assert status_of(shard_node, "POST", path) == 400  # routed; {} is a bad body
    assert status_of(door, "POST", path) == 404
    # the public rows are all still there next to them
    assert status_of(shard_node, "GET", "/v1/health") == 200


def test_both_backends_implement_the_service_backend_protocol(dataset):
    service = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
    coordinator = ClusterCoordinator(
        ClusterTopology(n_shards=1, nodes=(NodeAddress("127.0.0.1", 1),)), CONFIG
    )
    try:
        assert isinstance(service, ServiceBackend)
        assert isinstance(coordinator, ServiceBackend)
        assert not isinstance(object(), ServiceBackend)
    finally:
        service.close()
        coordinator.close()
