"""Error-envelope parity: the same bad input answers identically on both servers.

Before the shared endpoint table, the threaded and async front doors each
hand-rolled their 400 bodies and the shapes could silently drift.  This test
sends the same bad inputs to both and asserts the **exact** (status, body)
pair matches — the envelope (message, code, detail) is one definition in
:mod:`repro.api.endpoints`, so any drift is a regression here.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro import EngineConfig, HypeRService
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.service import make_server


@pytest.fixture(scope="module")
def both_servers():
    dataset = make_german_syn(200, seed=4)

    def service():
        return HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )

    threaded = make_server(service(), host="127.0.0.1", port=0)
    thread = threading.Thread(target=threaded.serve_forever, daemon=True)
    thread.start()
    with BackgroundAsyncServer(service(), max_inflight=4, queue_depth=8) as a_server:
        yield threaded.server_address[:2], a_server.address
    threaded.shutdown()
    threaded.server_close()
    thread.join(timeout=5)


def post_raw(address, path: str, raw: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    conn.request("POST", path, body=raw, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    body = json.loads(response.read() or b"{}")
    conn.close()
    return response.status, body


def send(address, method: str, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    conn.request(method, path)
    response = conn.getresponse()
    body = json.loads(response.read() or b"{}")
    conn.close()
    return response.status, body


BAD_QUERY_BODIES = [
    pytest.param(json.dumps({"query": "SELECT nonsense"}).encode(), id="syntax-error"),
    pytest.param(
        json.dumps(
            {"query": "USE Credit UPDATE(Nope) = 1 OUTPUT AVG(POST(Credit))"}
        ).encode(),
        id="semantics-error",
    ),
    pytest.param(json.dumps({"nope": 1}).encode(), id="missing-query-field"),
    pytest.param(json.dumps({"query": 7}).encode(), id="wrong-query-type"),
    pytest.param(json.dumps({"query": "q", "extra": 1}).encode(), id="unknown-field"),
    pytest.param(
        json.dumps({"query": "q", "api_version": "v9"}).encode(), id="wrong-version"
    ),
    pytest.param(b"{not json", id="malformed-json"),
    pytest.param(json.dumps(["a list"]).encode(), id="non-object-body"),
    pytest.param(b"", id="empty-body"),
]


@pytest.mark.parametrize("raw", BAD_QUERY_BODIES)
@pytest.mark.parametrize("path", ["/v1/query", "/query"])
def test_query_error_bodies_are_identical_across_front_doors(both_servers, path, raw):
    threaded_addr, async_addr = both_servers
    threaded_answer = post_raw(threaded_addr, path, raw)
    async_answer = post_raw(async_addr, path, raw)
    assert threaded_answer == async_answer
    status, body = threaded_answer
    assert status == 400
    assert set(body) >= {"error", "code"}


BAD_BATCH_BODIES = [
    pytest.param(json.dumps({"queries": "nope"}).encode(), id="queries-not-a-list"),
    pytest.param(json.dumps({"queries": ["a", 1]}).encode(), id="non-string-entry"),
    pytest.param(json.dumps({"q": []}).encode(), id="missing-queries"),
    pytest.param(b"", id="empty-body"),
]


@pytest.mark.parametrize("raw", BAD_BATCH_BODIES)
def test_batch_error_bodies_are_identical_across_front_doors(both_servers, raw):
    threaded_addr, async_addr = both_servers
    assert post_raw(threaded_addr, "/v1/batch", raw) == post_raw(
        async_addr, "/v1/batch", raw
    )


@pytest.mark.parametrize(
    "method, path",
    [("GET", "/v9/query"), ("PUT", "/v1/query"), ("DELETE", "/v1/jobs/x")],
)
def test_not_found_bodies_are_identical(both_servers, method, path):
    threaded_addr, async_addr = both_servers
    assert send(threaded_addr, method, path) == send(async_addr, method, path)
    status, body = send(threaded_addr, method, path)
    assert status == 404 and body["code"] == "not_found"


def test_batch_per_query_error_lines_match(both_servers):
    """The inline envelope of a failing batch entry matches across fronts."""
    threaded_addr, async_addr = both_servers
    payload = json.dumps({"queries": ["garbage"]}).encode()

    status, body = post_raw(threaded_addr, "/v1/batch", payload)
    assert status == 200
    threaded_entry = body["results"][0]

    conn = http.client.HTTPConnection(*async_addr, timeout=30)
    conn.request(
        "POST", "/v1/batch", body=payload, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    lines = [json.loads(line) for line in response.read().decode().splitlines()]
    conn.close()
    async_entry = {k: v for k, v in lines[0].items() if k != "index"}
    assert async_entry == threaded_entry
