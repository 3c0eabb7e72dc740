"""Error envelopes: every bad input answers one pinned ``(status, code)``.

The envelope (message, code, detail) is one definition in
:mod:`repro.api.core`; each bad body below is pinned to the status and code
the door answers it with, on the canonical path and its legacy alias alike.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import EngineConfig, HypeRService
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn


@pytest.fixture(scope="module")
def door():
    dataset = make_german_syn(200, seed=4)
    service = HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )
    with BackgroundAsyncServer(service, max_inflight=4, queue_depth=8) as server:
        yield server.address


def send(address, method: str, path: str, raw: bytes | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    headers = {"Content-Type": "application/json"} if raw is not None else {}
    conn.request(method, path, body=raw, headers=headers)
    response = conn.getresponse()
    body = json.loads(response.read() or b"{}")
    conn.close()
    return response.status, body


def envelope(answer: tuple[int, dict]) -> tuple[int, str]:
    """``(status, code)`` of an answer that must be an error envelope."""
    status, body = answer
    assert isinstance(body["error"], str) and body["error"], body
    return status, body["code"]


BAD = (400, "bad_request")

BAD_QUERY_BODIES = [
    pytest.param(
        json.dumps({"query": "SELECT nonsense"}).encode(),
        (400, "query_syntax"),
        id="syntax-error",
    ),
    pytest.param(
        json.dumps(
            {"query": "USE Credit UPDATE(Nope) = 1 OUTPUT AVG(POST(Credit))"}
        ).encode(),
        (400, "query_semantics"),
        id="semantics-error",
    ),
    pytest.param(json.dumps({"nope": 1}).encode(), BAD, id="missing-query-field"),
    pytest.param(json.dumps({"query": 7}).encode(), BAD, id="wrong-query-type"),
    pytest.param(json.dumps({"query": "q", "extra": 1}).encode(), BAD, id="unknown-field"),
    pytest.param(
        json.dumps({"query": "q", "api_version": "v9"}).encode(), BAD, id="wrong-version"
    ),
    pytest.param(b"{not json", BAD, id="malformed-json"),
    pytest.param(json.dumps(["a list"]).encode(), BAD, id="non-object-body"),
    pytest.param(b"", BAD, id="empty-body"),
]


@pytest.mark.parametrize("raw, expected", BAD_QUERY_BODIES)
@pytest.mark.parametrize("path", ["/v1/query", "/query"])
def test_bad_query_bodies_answer_their_envelope(door, path, raw, expected):
    assert envelope(send(door, "POST", path, raw)) == expected


@pytest.mark.parametrize(
    "text, offending",
    [
        pytest.param(
            "USE Credit UPDATE(Status) = 2 * PRE(Age) OUTPUT AVG(POST(Credit))",
            "Age",
            id="pre-mismatch",
        ),
        # ``str.isdigit`` accepts ``²``; it is an illegal character, not a number
        pytest.param(
            "USE Credit UPDATE(Status) = ² * PRE(Status) OUTPUT AVG(POST(Credit))",
            "²",
            id="non-decimal-digit",
        ),
    ],
)
def test_a_syntax_error_envelope_carries_its_position(door, text, offending):
    status, body = send(door, "POST", "/v1/query", json.dumps({"query": text}).encode())
    assert (status, body["code"]) == (400, "query_syntax")
    assert body["detail"] == {"position": text.index(offending), "line": 1}


BAD_BATCH_BODIES = [
    pytest.param(json.dumps({"queries": "nope"}).encode(), id="queries-not-a-list"),
    pytest.param(json.dumps({"queries": ["a", 1]}).encode(), id="non-string-entry"),
    pytest.param(json.dumps({"q": []}).encode(), id="missing-queries"),
    pytest.param(b"", id="empty-body"),
]


@pytest.mark.parametrize("raw", BAD_BATCH_BODIES)
def test_bad_batch_bodies_are_bad_requests_not_streams(door, raw):
    assert envelope(send(door, "POST", "/v1/batch", raw)) == BAD


@pytest.mark.parametrize(
    "method, path",
    [("GET", "/v9/query"), ("PUT", "/v1/query"), ("DELETE", "/v1/jobs/x")],
)
def test_unrouted_requests_are_not_found(door, method, path):
    assert envelope(send(door, method, path)) == (404, "not_found")


def test_a_failing_batch_entry_is_an_inline_envelope_line(door):
    conn = http.client.HTTPConnection(*door, timeout=30)
    conn.request(
        "POST",
        "/v1/batch",
        body=json.dumps({"queries": ["garbage"]}).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    lines = [json.loads(line) for line in response.read().decode().splitlines()]
    conn.close()
    assert response.status == 200
    assert lines[-1] == {"done": True, "n_queries": 1}
    (entry,) = lines[:-1]
    assert (entry["index"], entry["code"]) == (0, "query_syntax")
    assert isinstance(entry["error"], str) and "result" not in entry
