"""Observability conformance on the door.

``GET /v1/metrics`` must serve valid Prometheus text, ``?trace=1`` must
return the v1 ``TraceSpan`` tree, every response must carry an
``X-Request-Id`` (echoing the client's), and ``GET /v1/slow`` entries must
name the offending request.  The sharded test asserts the span-tree shape:
one shard-worker span nested under the broadcast, and child durations
bounded by the root's wall time.
"""

from __future__ import annotations

import http.client

import pytest

from repro import EngineConfig, HypeRService
from repro.api.client import HypeRClient
from repro.api.schemas import TraceSpan
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.obs.metrics import validate_exposition
from repro.obs.trace import TraceContext

QUERY = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
CONFIG = EngineConfig(regressor="linear")


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=11)


@pytest.fixture(scope="module")
def service(dataset):
    # threshold 0: every completion enters the slow log, so the /v1/slow
    # tests don't depend on actual latencies
    service = HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, slow_query_seconds=0.0
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def door(service):
    with BackgroundAsyncServer(service, max_inflight=4) as server:
        yield server.address


def _span_names(node: TraceSpan):
    yield node.name
    for child in node.children:
        yield from _span_names(child)


def _find(node: TraceSpan, name: str) -> TraceSpan | None:
    if node.name == name:
        return node
    for child in node.children:
        found = _find(child, name)
        if found is not None:
            return found
    return None


class TestMetricsEndpoint:
    def test_valid_prometheus_text(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        assert validate_exposition(body) > 0
        assert "hyper_queries_total" in body
        assert "# TYPE hyper_request_seconds histogram" in body

    def test_client_metrics_helper(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=30.0) as client:
            text = client.metrics()
        assert validate_exposition(text) > 0


class TestRequestId:
    def test_client_supplied_id_is_echoed(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "GET", "/v1/metrics", headers={"X-Request-Id": "deadbeef00000001"}
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.getheader("X-Request-Id") == "deadbeef00000001"

    def test_server_mints_id_when_absent(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.getheader("X-Request-Id")


class TestTracedQuery:
    def test_trace_conformance(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            answer = client.query(QUERY)
        tree = answer.trace
        assert isinstance(tree, TraceSpan)
        assert tree.name == "request"
        assert tree.meta["request_id"] == client.last_request_id
        names = set(_span_names(tree))
        assert {"parse", "cache.result", "serialize"} <= names
        # execute nests inside the cache span on a miss; a warm repeat hits
        cache = _find(tree, "cache.result")
        assert cache.meta is not None and "hit" in cache.meta

    def test_untraced_answer_has_no_trace(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0) as client:
            answer = client.query(QUERY)
        assert answer.trace is None

    def test_door_records_queue_wait(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            answer = client.query(QUERY)
        assert _find(answer.trace, "admission.queue") is not None

    def test_per_call_trace_flag(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0) as client:
            assert client.query(QUERY, trace=True).trace is not None
            assert client.query(QUERY, trace=False).trace is None


class TestSlowLog:
    def test_entries_name_the_offending_request(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            client.query(QUERY)
            request_id = client.last_request_id
            slow = client.slow_queries()
        assert slow["threshold_seconds"] == 0.0
        assert slow["entries"], "threshold 0 must log every completion"
        by_id = {entry["last_request_id"] for entry in slow["entries"]}
        assert request_id in by_id


class TestShardedTrace:
    def test_span_tree_shape(self, dataset):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            EngineConfig(regressor="linear"),
            execution="processes",
            n_shards=2,
        )
        try:
            trace = TraceContext()
            result = service.execute(QUERY, trace=trace)
            baseline = service.execute(QUERY)  # warm-cache sanity companion
        finally:
            service.close()
        assert float(result.value) == float(baseline.value)

        tree = TraceSpan.from_json(trace.to_wire())
        names = set(_span_names(tree))
        assert {"parse", "cache.result", "shard.scatter_batch"} <= names
        # one query is a batch of one, dealt whole to one worker: one leg,
        # nothing to merge
        assert "shard.merge" not in names

        batch = _find(tree, "shard.scatter_batch")
        assert batch.meta["shards"] == 1 and batch.meta["batch"] == 1
        (worker,) = [
            child for child in batch.children if child.name.startswith("shard-worker[")
        ]
        assert worker.meta["shard"] in (0, 1) and worker.meta["kind"] == "full"
        # measured on the worker's clock, it still fits inside the batch
        # span that awaited it
        assert 0 <= worker.duration_ms <= batch.duration_ms + 1e-3

        # root wall time bounds the (sequential) direct children
        assert sum(child.duration_ms for child in tree.children) <= (
            tree.duration_ms + 1e-3
        )
