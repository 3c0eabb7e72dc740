"""The /v1 conformance suite, run against the HTTP door.

This is the executable form of the contract in :mod:`repro.api.endpoints`:
canonical ``/v1/*`` paths, legacy aliases answering byte-identically, typed
answers that validate against the strict v1 schemas, and the shared error
envelope for 400/404/413.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.api.endpoints import V1_ENDPOINTS
from repro.api.schemas import (
    API_VERSION,
    BatchItem,
    JobListAnswer,
    JobStatus,
    PrepareAnswer,
    StatsSnapshot,
    UpdateAnswer,
    WhatIfAnswer,
    answer_from_json,
)
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
HOWTO_TEXT = (
    "USE Credit HOWTOUPDATE CreditAmount "
    "LIMIT L1(PRE(CreditAmount), POST(CreditAmount)) <= 500 "
    "TOMAXIMIZE AVG(POST(Credit))"
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=4)


def _make_service(dataset):
    return HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )


@pytest.fixture(scope="module")
def front_door(dataset):
    service = _make_service(dataset)
    with BackgroundAsyncServer(service, max_inflight=4, queue_depth=16) as server:
        yield server.address


def send(
    address: tuple[str, int],
    method: str,
    path: str,
    payload: dict | None = None,
    raw_body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    body = raw_body if raw_body is not None else (
        json.dumps(payload).encode() if payload is not None else None
    )
    all_headers = {"Content-Type": "application/json"} if body else {}
    if headers:
        all_headers.update(headers)
    conn.request(method, path, body=body, headers=all_headers)
    response = conn.getresponse()
    data = json.loads(response.read() or b"{}")
    conn.close()
    return response.status, data


class TestHealthAndStats:
    def test_v1_health(self, front_door):
        status, body = send(front_door, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["api_version"] == API_VERSION

    def test_legacy_health_alias_is_identical(self, front_door):
        _, canonical = send(front_door, "GET", "/v1/health")
        _, alias = send(front_door, "GET", "/health")
        assert alias == canonical

    def test_v1_stats_parses_as_snapshot(self, front_door):
        send(front_door, "POST", "/v1/query", {"query": QUERY_TEXT})
        status, body = send(front_door, "GET", "/v1/stats")
        assert status == 200
        snapshot = StatsSnapshot.from_json(body)
        assert snapshot.n_queries >= 1
        assert "estimators" in snapshot.caches


class TestQuery:
    def test_v1_query_returns_strictly_valid_typed_answer(self, front_door, dataset):
        status, body = send(front_door, "POST", "/v1/query", {"query": QUERY_TEXT})
        assert status == 200
        answer = answer_from_json(body)  # strict: unknown fields would fail
        assert isinstance(answer, WhatIfAnswer)
        direct = HypeR(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        ).execute(QUERY_TEXT)
        assert answer.value == direct.value  # bitwise through the JSON round-trip

    def test_legacy_query_alias_is_identical(self, front_door):
        _, canonical = send(front_door, "POST", "/v1/query", {"query": QUERY_TEXT})
        _, alias = send(front_door, "POST", "/query", {"query": QUERY_TEXT})
        assert {k: v for k, v in alias.items() if k != "runtime_seconds"} == {
            k: v for k, v in canonical.items() if k != "runtime_seconds"
        }

    def test_how_to_answer_validates(self, front_door):
        status, body = send(front_door, "POST", "/v1/query", {"query": HOWTO_TEXT})
        assert status == 200
        answer = answer_from_json(body)
        assert answer.to_json()["kind"] == "how-to"


class TestErrorEnvelopes:
    def test_syntax_error_envelope(self, front_door):
        status, body = send(
            front_door, "POST", "/v1/query", {"query": "SELECT nonsense"}
        )
        assert status == 400
        assert body["code"] == "query_syntax"
        assert isinstance(body["error"], str)
        assert "position" in body.get("detail", {})

    def test_semantics_error_envelope(self, front_door):
        text = "USE Credit UPDATE(Nope) = 1 OUTPUT AVG(POST(Credit))"
        status, body = send(front_door, "POST", "/v1/query", {"query": text})
        assert status == 400
        assert body["code"] == "query_semantics"

    def test_unknown_field_is_schema_violation(self, front_door):
        status, body = send(
            front_door, "POST", "/v1/query", {"query": QUERY_TEXT, "shard": 1}
        )
        assert status == 400
        assert body["code"] == "bad_request"
        assert "unknown field" in body["error"]

    def test_missing_query_field(self, front_door):
        status, body = send(front_door, "POST", "/v1/query", {"nope": 1})
        assert status == 400
        assert body["code"] == "bad_request"

    def test_malformed_json_body(self, front_door):
        status, body = send(front_door, "POST", "/v1/query", raw_body=b"{not json")
        assert status == 400
        assert body["code"] == "bad_request"
        assert "malformed JSON" in body["error"]

    def test_unknown_path_is_404_envelope(self, front_door):
        status, body = send(front_door, "GET", "/v2/health")
        assert status == 404
        assert body["code"] == "not_found"

    def test_oversized_declared_body_is_413_envelope(self, front_door):
        host, port = front_door
        conn = http.client.HTTPConnection(host, port, timeout=30)
        # declare an oversized body without paying to send it: the door
        # must reject on the declared length, before the read
        conn.putrequest("POST", "/v1/query")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(64 * 1024 * 1024))
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 413
        assert body["code"] == "payload_too_large"
        assert "exceeds" in body["error"]


class TestBatch:
    TEXTS = [QUERY_TEXT, "garbage", QUERY_TEXT.replace("= 4", "= 3")]

    def test_batch_answers_all_queries_with_per_query_envelopes(self, front_door):
        host, port = front_door
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request(
            "POST",
            "/v1/batch",
            body=json.dumps({"queries": self.TEXTS}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert "ndjson" in (response.getheader("Content-Type") or "")
        lines = [json.loads(line) for line in response.read().decode().splitlines()]
        conn.close()
        assert lines[-1] == {"done": True, "n_queries": 3}
        items = [BatchItem.from_json(line) for line in lines[:-1]]
        by_index = {item.index: item for item in items}
        assert set(by_index) == {0, 1, 2}
        assert by_index[0].ok and by_index[2].ok
        assert not by_index[1].ok
        assert by_index[1].error.code == "query_syntax"

    def test_batch_rejects_non_list_queries(self, front_door):
        status, body = send(front_door, "POST", "/v1/batch", {"queries": "nope"})
        assert status == 400
        assert body["code"] == "bad_request"


class TestUpdate:
    def test_v1_update_commits_and_answers_typed(self, front_door, dataset):
        # overwrite the Credit column with its current values: a real commit
        # (new generation, changed={"Credit"}) whose answers stay bitwise
        # identical — so the module's shared service is undisturbed
        column = [float(v) for v in dataset.database["Credit"].column("Credit")]
        _, health_before = send(front_door, "GET", "/v1/health")
        _, query_before = send(front_door, "POST", "/v1/query", {"query": QUERY_TEXT})
        status, body = send(
            front_door,
            "POST",
            "/v1/update",
            {"assignments": {"Credit": {"Credit": column}}},
        )
        assert status == 200
        answer = UpdateAnswer.from_json(body)  # strict: round-trips the schema
        assert answer.changed == ("Credit",)
        assert answer.generation == health_before["generation"] + 1
        _, query_after = send(front_door, "POST", "/v1/query", {"query": QUERY_TEXT})
        assert query_after["value"] == query_before["value"]

    def test_unknown_relation_is_semantics_envelope(self, front_door):
        status, body = send(
            front_door,
            "POST",
            "/v1/update",
            {"assignments": {"Nope": {"X": [1.0]}}},
        )
        assert status == 400
        assert body["code"] == "query_semantics"

    def test_schema_violation_is_bad_request_envelope(self, front_door):
        status, body = send(front_door, "POST", "/v1/update", {"assignments": {}})
        assert status == 400
        assert body["code"] == "bad_request"

    def test_wrong_column_length_is_bad_request_envelope(self, front_door):
        status, body = send(
            front_door,
            "POST",
            "/v1/update",
            {"assignments": {"Credit": {"Credit": [1.0, 0.0]}}},
        )
        assert status == 400
        assert body["code"] == "bad_request"

    def test_update_has_no_legacy_alias(self, front_door):
        status, body = send(
            front_door,
            "POST",
            "/update",
            {"assignments": {"Credit": {"Credit": [1.0]}}},
        )
        assert status == 404
        assert body["code"] == "not_found"


class TestPrepare:
    def test_v1_prepare_warms_and_answers_typed(self, front_door):
        status, body = send(front_door, "POST", "/v1/prepare", {"queries": [QUERY_TEXT]})
        assert status == 200
        answer = PrepareAnswer.from_json(body)  # strict: round-trips the schema
        assert answer.prepared == 1
        assert answer.generation >= 0

    def test_empty_queries_is_bad_request(self, front_door):
        status, body = send(front_door, "POST", "/v1/prepare", {"queries": []})
        assert status == 400
        assert body["code"] == "bad_request"

    def test_syntax_error_is_envelope(self, front_door):
        status, body = send(
            front_door, "POST", "/v1/prepare", {"queries": ["NOT A QUERY"]}
        )
        assert status == 400
        assert body["code"] == "query_syntax"


# -- jobs: the durable async job service, through the door -----------------------------


@pytest.fixture(scope="module")
def jobs_front_door(dataset, tmp_path_factory):
    from repro.jobs.manager import attach_jobs

    service = _make_service(dataset)
    attach_jobs(service, str(tmp_path_factory.mktemp("jobs") / "journal.jsonl"))
    with BackgroundAsyncServer(service, max_inflight=4, queue_depth=16) as server:
        yield server.address


def _stream_events(address, job_id, timeout_s=30.0, headers=None):
    """Read the NDJSON event stream until its ``done`` line."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request(
        "GET",
        f"/v1/jobs/{job_id}/events?timeout_s={timeout_s}",
        headers=headers or {},
    )
    response = conn.getresponse()
    assert response.status == 200
    assert "ndjson" in (response.getheader("Content-Type") or "")
    events = []
    while True:
        line = response.readline()
        if not line:
            break
        if not line.strip():
            continue
        event = json.loads(line)
        events.append(event)
        if event.get("done"):
            break
    conn.close()
    return events


@pytest.fixture()
def expiring_jobs_door(dataset, tmp_path):
    """A door whose job results expire at the first sweep, and its manager."""
    from repro.jobs.manager import attach_jobs

    service = _make_service(dataset)
    manager = attach_jobs(
        service, str(tmp_path / "journal.jsonl"),
        result_ttl_seconds=0.0, job_ttl_seconds=3600.0, gc_interval_seconds=3600.0,
    )
    with BackgroundAsyncServer(service, max_inflight=2) as server:
        yield server.address, manager
    manager.close()


class TestJobs:
    def test_a_result_is_expired_or_not_yet_there(self, expiring_jobs_door):
        """``/result`` of a job whose result was swept is 404
        ``result_expired``; of a job still queued, 404 ``not_found`` naming
        its state."""
        address, manager = expiring_jobs_door
        _, done = send(address, "POST", "/v1/jobs", {"query": QUERY_TEXT})
        manager.wait(done["job_id"], timeout=60)
        _, waiting = send(address, "POST", "/v1/jobs",
                          {"query": QUERY_TEXT, "run_at_generation": 1000})
        assert manager.gc_once()["expired"] == 1
        status, body = send(address, "GET", f"/v1/jobs/{done['job_id']}/result")
        assert (status, body["code"]) == (404, "result_expired")
        status, body = send(address, "GET", f"/v1/jobs/{waiting['job_id']}/result")
        assert (status, body["code"], body["detail"]) == (404, "not_found", {"state": "queued"})

    def test_a_job_that_ages_out_mid_stream_ends_it_cleanly(self, expiring_jobs_door):
        """The event stream of a job dropped between two polls closes with
        ``terminal`` null, not an error."""
        address, manager = expiring_jobs_door
        _, queued = send(address, "POST", "/v1/jobs",
                         {"query": QUERY_TEXT, "run_at_generation": 1000})
        job_id = queued["job_id"]
        events_since = manager.events_since

        def first_poll_then_gone(polled, cursor):
            events = events_since(polled, cursor)
            with manager._cond:  # what a sweep does to an aged-out job
                manager._jobs.pop(polled)
                manager._events.pop(polled)
            return events

        manager.events_since = first_poll_then_gone
        events = _stream_events(address, job_id)
        assert [event.get("event") for event in events[:-1]] == ["queued"]
        assert events[-1] == {"done": True, "job_id": job_id, "terminal": None}

    def test_submit_poll_result_lifecycle(self, jobs_front_door):
        status, body = send(
            jobs_front_door,
            "POST",
            "/v1/jobs",
            {"query": QUERY_TEXT, "priority": "high"},
            headers={"X-Client-Id": "conformance"},
        )
        assert status == 202
        submitted = JobStatus.from_json(body)  # strict: round-trips the schema
        assert submitted.state in ("queued", "running")
        assert submitted.client_id == "conformance"
        assert submitted.priority == "high"

        # explicitly-owned jobs are scoped to their client id, so every
        # follow-up request carries the same header the submit did
        owner = {"X-Client-Id": "conformance"}
        events = _stream_events(jobs_front_door, submitted.job_id, headers=owner)
        assert events[-1].get("done") is True
        assert events[-1]["terminal"] == "succeeded"
        states = [e.get("state") for e in events if not e.get("done")]
        assert "succeeded" in states

        status, body = send(
            jobs_front_door, "GET", f"/v1/jobs/{submitted.job_id}", headers=owner
        )
        assert status == 200
        final = JobStatus.from_json(body)
        assert final.state == "succeeded"
        assert final.result_available
        assert final.completed == final.total == 1

        status, result = send(
            jobs_front_door,
            "GET",
            f"/v1/jobs/{submitted.job_id}/result",
            headers=owner,
        )
        assert status == 200
        assert result["job_id"] == submitted.job_id
        # the job's answer is bitwise what the synchronous path computes
        _, sync_answer = send(
            jobs_front_door, "POST", "/v1/query", {"query": QUERY_TEXT}
        )
        assert result["result"] == sync_answer

    def test_batch_job_results_match_sync_batch(self, jobs_front_door):
        queries = [QUERY_TEXT, "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"]
        status, body = send(
            jobs_front_door, "POST", "/v1/jobs", {"queries": queries}
        )
        assert status == 202
        job_id = body["job_id"]
        _stream_events(jobs_front_door, job_id)
        status, result = send(jobs_front_door, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert result["kind"] == "batch"
        assert [item["index"] for item in result["results"]] == [0, 1]
        for item, query in zip(result["results"], queries):
            _, sync_answer = send(
                jobs_front_door, "POST", "/v1/query", {"query": query}
            )
            assert item["result"] == sync_answer

    def test_list_is_scoped_to_client_id(self, jobs_front_door):
        status, _ = send(
            jobs_front_door,
            "POST",
            "/v1/jobs",
            {"query": QUERY_TEXT},
            headers={"X-Client-Id": "scoped-lister"},
        )
        assert status == 202
        status, body = send(
            jobs_front_door,
            "GET",
            "/v1/jobs",
            headers={"X-Client-Id": "scoped-lister"},
        )
        assert status == 200
        listing = JobListAnswer.from_json(body)
        assert len(listing.jobs) == 1
        assert all(job.client_id == "scoped-lister" for job in listing.jobs)
        status, other = send(
            jobs_front_door,
            "GET",
            "/v1/jobs",
            headers={"X-Client-Id": "someone-else"},
        )
        assert status == 200
        assert other["jobs"] == []

    def test_foreign_client_cannot_read_or_cancel_owned_job(self, jobs_front_door):
        # a job submitted under an explicit X-Client-Id answers 404 — the
        # same envelope as an unknown id — to every other client id
        status, body = send(
            jobs_front_door,
            "POST",
            "/v1/jobs",
            {"query": QUERY_TEXT},
            headers={"X-Client-Id": "owner-a"},
        )
        assert status == 202
        job_id = body["job_id"]
        for method, path in [
            ("GET", f"/v1/jobs/{job_id}"),
            ("GET", f"/v1/jobs/{job_id}/result"),
            ("GET", f"/v1/jobs/{job_id}/events"),
            ("POST", f"/v1/jobs/{job_id}/cancel"),
        ]:
            status, body = send(
                jobs_front_door,
                method,
                path,
                {} if method == "POST" else None,
                headers={"X-Client-Id": "intruder"},
            )
            assert status == 404, path
            assert body["code"] == "not_found", path
        # an anonymous caller (no header) is equally locked out
        status, body = send(jobs_front_door, "GET", f"/v1/jobs/{job_id}")
        assert status == 404
        # while the owner still sees it
        status, _ = send(
            jobs_front_door,
            "GET",
            f"/v1/jobs/{job_id}",
            headers={"X-Client-Id": "owner-a"},
        )
        assert status == 200

    def test_cancel_is_idempotent_on_terminal_jobs(self, jobs_front_door):
        status, body = send(jobs_front_door, "POST", "/v1/jobs", {"query": QUERY_TEXT})
        assert status == 202
        job_id = body["job_id"]
        _stream_events(jobs_front_door, job_id)
        status, body = send(jobs_front_door, "POST", f"/v1/jobs/{job_id}/cancel", {})
        assert status == 200
        assert JobStatus.from_json(body).state == "succeeded"

    def test_failed_job_reports_error_envelope_fields(self, jobs_front_door):
        status, body = send(
            jobs_front_door, "POST", "/v1/jobs", {"query": "NOT A QUERY"}
        )
        assert status == 202
        job_id = body["job_id"]
        events = _stream_events(jobs_front_door, job_id)
        assert events[-1]["terminal"] == "failed"
        status, body = send(jobs_front_door, "GET", f"/v1/jobs/{job_id}")
        final = JobStatus.from_json(body)
        assert final.state == "failed"
        assert final.error_code == "query_syntax"
        assert not final.result_available
        status, body = send(jobs_front_door, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 404

    def test_unknown_job_is_not_found_envelope(self, jobs_front_door):
        for method, path in [
            ("GET", "/v1/jobs/job-missing"),
            ("GET", "/v1/jobs/job-missing/result"),
            ("GET", "/v1/jobs/job-missing/events"),
            ("POST", "/v1/jobs/job-missing/cancel"),
        ]:
            status, body = send(
                jobs_front_door, method, path, {} if method == "POST" else None
            )
            assert status == 404, path
            assert body["code"] == "not_found", path

    def test_submit_without_jobs_dir_is_unavailable(self, front_door):
        # the plain front_door fixture has no --jobs-dir manager attached
        status, body = send(front_door, "POST", "/v1/jobs", {"query": QUERY_TEXT})
        assert status == 503
        assert body["code"] == "unavailable"

    def test_malformed_submit_is_bad_request(self, jobs_front_door):
        status, body = send(
            jobs_front_door,
            "POST",
            "/v1/jobs",
            {"query": QUERY_TEXT, "queries": [QUERY_TEXT]},
        )
        assert status == 400
        assert body["code"] == "bad_request"

    def test_stats_report_jobs_and_clients(self, jobs_front_door):
        send(
            jobs_front_door,
            "POST",
            "/v1/jobs",
            {"query": QUERY_TEXT},
            headers={"X-Client-Id": "stats-client"},
        )
        status, body = send(jobs_front_door, "GET", "/v1/stats")
        assert status == 200
        snapshot = StatsSnapshot.from_json(body)  # tolerates the new sections
        assert "jobs" in body
        assert body["jobs"]["jobs"] >= 1
        assert "clients" in body
        assert "stats-client" in body["clients"]["requests"]
        assert snapshot.generation >= 0


# -- X-Request-Id: promised on every response (README, docs/observability.md) ----------

ROW_BODIES = {
    "query": {"query": QUERY_TEXT},
    "batch": {"queries": [QUERY_TEXT]},  # the door answers a stream head
    "prepare": {"queries": [QUERY_TEXT]},
    "jobs_submit": {"query": QUERY_TEXT},
}


def _response_head(address, method, path, body=None, headers=None):
    """Status and ``X-Request-Id`` of a response, without draining a stream."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    head = response.status, response.getheader("X-Request-Id")
    conn.close()
    return head


@pytest.mark.parametrize("row", V1_ENDPOINTS, ids=lambda row: row.name)
def test_every_row_echoes_the_request_id(jobs_front_door, row):
    job_id = "job-missing"
    if "{id}" in row.path:  # a live job, so the events row answers its stream
        _, submitted = send(jobs_front_door, "POST", "/v1/jobs", {"query": QUERY_TEXT})
        job_id = submitted["job_id"]
    body = None
    if row.method == "POST":  # rows without an entry answer 400/200 on {}
        body = json.dumps(ROW_BODIES.get(row.name, {})).encode()
    status, echoed = _response_head(
        jobs_front_door,
        row.method,
        row.path.replace("{id}", job_id),
        body,
        {"X-Request-Id": f"conformance-{row.name}"},
    )
    assert status < 500, row.name
    assert echoed == f"conformance-{row.name}"


def test_unrouted_and_unframed_requests_still_carry_a_request_id(front_door):
    status, echoed = _response_head(
        front_door, "GET", "/v9/nowhere", headers={"X-Request-Id": "lost-0001"}
    )
    assert (status, echoed) == (404, "lost-0001")
    # a body the door cannot frame is answered before any routing: the id is
    # minted (the door rejects it at the protocol layer)
    conn = http.client.HTTPConnection(*front_door, timeout=30)
    conn.putrequest("POST", "/v1/query")
    conn.putheader("Content-Length", "nan")
    conn.endheaders()
    response = conn.getresponse()
    body = json.loads(response.read())
    conn.close()
    assert response.status == 400
    assert "invalid Content-Length" in body["error"]
    assert response.getheader("X-Request-Id")
