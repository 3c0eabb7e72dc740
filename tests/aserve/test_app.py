"""End-to-end tests of the asyncio front-end against live sockets."""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct
import threading
import time

import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.aserve import BackgroundAsyncServer
from repro.aserve.protocol import ChunkedJsonWriter
from repro.datasets import make_german_syn
from repro.jobs.manager import attach_jobs
from repro.service.backend import ServingCounters

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=4)


@pytest.fixture(scope="module")
def service(dataset):
    return HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )


@pytest.fixture(scope="module")
def live_server(service):
    with BackgroundAsyncServer(
        service, max_inflight=4, queue_depth=8, max_body_bytes=64 * 1024
    ) as server:
        yield server


def request(
    server, method: str, path: str, payload=None, conn=None
) -> tuple[int, dict, http.client.HTTPConnection]:
    host, port = server.address
    if conn is None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, json.loads(raw) if raw else {}, conn


class TestEndpoints:
    def test_health(self, live_server):
        status, payload, _ = request(live_server, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_query_matches_direct_execution_bitwise(self, live_server, dataset):
        status, payload, _ = request(
            live_server, "POST", "/query", {"query": QUERY_TEXT}
        )
        assert status == 200
        assert payload["kind"] == "what-if"
        direct = HypeR(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        ).execute(QUERY_TEXT)
        # bitwise: the JSON float round-trip is exact for finite doubles
        assert payload["value"] == direct.value

    def test_parse_error_is_400(self, live_server):
        status, payload, _ = request(
            live_server, "POST", "/query", {"query": "SELECT nonsense"}
        )
        assert status == 400
        assert "error" in payload

    def test_missing_query_field_is_400(self, live_server):
        status, payload, _ = request(live_server, "POST", "/query", {"nope": 1})
        assert status == 400

    def test_malformed_json_is_400(self, live_server):
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request(
            "POST", "/query", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "malformed JSON" in payload["error"]

    def test_oversized_body_is_413(self, live_server):
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request(
            "POST",
            "/query",
            body=b"x" * (128 * 1024),  # above the server's 64 KiB limit
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 413
        assert "exceeds" in payload["error"]

    def test_unexpected_engine_error_is_500_internal_envelope(
        self, live_server, service, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "execute", explode)
        status, payload, _ = request(live_server, "POST", "/v1/query", {"query": QUERY_TEXT})
        assert status == 500
        assert payload == {"error": "RuntimeError: boom", "code": "internal"}

    def test_unknown_path_is_404(self, live_server):
        status, payload, _ = request(live_server, "POST", "/nowhere", {"q": 1})
        assert status == 404
        status, _, _ = request(live_server, "GET", "/nowhere")
        assert status == 404

    def test_keep_alive_reuses_one_connection(self, live_server):
        status, _, conn = request(live_server, "GET", "/health")
        assert status == 200
        sock = conn.sock
        status, payload, _ = request(
            live_server, "POST", "/query", {"query": QUERY_TEXT}, conn=conn
        )
        assert status == 200
        assert conn.sock is sock  # same socket served both requests

    def test_stats_include_admission_and_serving_sections(self, live_server, service):
        status, payload, _ = request(live_server, "GET", "/stats")
        assert status == 200
        assert payload["aserve"]["draining"] is False
        admission = payload["aserve"]["admission"]
        assert admission["max_inflight"] == 4
        assert admission["queue_depth"] == 8
        assert admission["admitted_total"] >= 1
        assert admission["decisions"]["p99_seconds"] < 0.05
        serving = payload["serving"]
        assert serving["in_flight"] == 0
        assert serving["peak_in_flight"] >= 1
        assert serving["latency"]["query"]["count"] >= 1
        assert serving["latency"]["query"]["seconds"] > 0


class TestBatchStreaming:
    def test_batch_streams_ndjson_with_per_query_errors(self, live_server):
        texts = [QUERY_TEXT, "garbage query", QUERY_TEXT.replace("= 4", "= 3")]
        status, _, conn = request(live_server, "GET", "/health")
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request(
            "POST",
            "/batch",
            body=json.dumps({"queries": texts}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        assert response.getheader("Transfer-Encoding") == "chunked"
        lines = [json.loads(line) for line in response.read().decode().splitlines()]
        assert lines[-1] == {"done": True, "n_queries": 3}
        results = {line["index"]: line for line in lines[:-1]}
        assert set(results) == {0, 1, 2}
        assert results[0]["result"]["kind"] == "what-if"
        assert "error" in results[1] and "result" not in results[1]
        assert results[2]["result"]["kind"] == "what-if"

    def test_batch_results_stream_as_they_complete(self, live_server):
        """Early lines arrive before the whole batch has finished."""
        texts = [QUERY_TEXT.replace("= 4", f"= {k}") for k in (5, 6, 7, 8)]
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request(
            "POST",
            "/batch",
            body=json.dumps({"queries": texts}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        # lines are readable one at a time while the batch is still running
        first_line = json.loads(response.readline())
        assert "index" in first_line
        rest = [json.loads(line) for line in response.read().decode().splitlines()]
        assert rest[-1] == {"done": True, "n_queries": 4}
        assert {line["index"] for line in [first_line, *rest[:-1]]} == {0, 1, 2, 3}

    def test_empty_batch(self, live_server):
        status, payload, _ = request(live_server, "POST", "/batch", {"queries": []})
        assert status == 200
        assert payload == {"results": [], "n_queries": 0}

    def test_batch_connection_stays_usable_afterwards(self, live_server):
        host, port = live_server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request(
            "POST",
            "/batch",
            body=json.dumps({"queries": [QUERY_TEXT]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        response.read()
        status, payload, _ = request(live_server, "GET", "/health", conn=conn)
        assert status == 200 and payload["status"] == "ok"


class _Result:
    def __init__(self, value: float) -> None:
        self.value = value

    def payload(self) -> dict:
        return {"kind": "what-if", "value": self.value}


class FakeService(ServingCounters):
    """A stand-in backend whose execute() blocks until released."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()
        self.closed = False
        self.max_workers = 4
        self.generation = 0
        self.rejections: list[tuple[str, int]] = []

    def execute(self, text, *, exhaustive=False):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("never released")
        return _Result(42.0)

    def prepare(self, text):
        return None

    def start_pool(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    def stats(self) -> dict:
        return {"serving": self.serving_signals()}

    def serving_signals(self) -> dict:
        return {
            "in_flight": 0,
            "peak_in_flight": 0,
            "rejected_total": len(self.rejections),
            "rejected": {},
            "capacity_hint": 1,
            "saturation": 0.0,
            "latency": {},
        }

    def record_rejection(self, endpoint="query", *, units=1):
        self.rejections.append((endpoint, units))


class TestOverload:
    def test_excess_load_gets_429_with_retry_after(self):
        fake = FakeService()
        with BackgroundAsyncServer(fake, max_inflight=1, queue_depth=0) as server:
            blocked = []

            def slow_request():
                blocked.append(request(server, "POST", "/query", {"query": "q"})[:2])

            worker = threading.Thread(target=slow_request)
            worker.start()
            assert fake.started.wait(timeout=10)  # the slot is now occupied
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST",
                "/query",
                body=json.dumps({"query": "q"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 429
            assert int(response.getheader("Retry-After")) >= 1
            assert payload["retry_after"] >= 0.1
            assert fake.rejections == [("query", 1)]
            fake.release.set()
            worker.join(timeout=15)
            assert blocked == [(200, {"kind": "what-if", "value": 42.0})]
        assert fake.closed  # drained shutdown released the service

    def test_batch_beyond_total_capacity_is_413_not_eternal_429(self):
        fake = FakeService()
        fake.release.set()
        with BackgroundAsyncServer(fake, max_inflight=1, queue_depth=1) as server:
            # 3 queries can *never* fit capacity 2: retrying would be a lie
            status, payload, _ = request(
                server, "POST", "/batch", {"queries": ["a", "b", "c"]}
            )
            assert status == 413
            assert "split the batch" in payload["error"]
            assert fake.rejections == []  # not an overload, a contract error

    def test_batch_within_capacity_is_429_only_under_load(self):
        fake = FakeService()
        with BackgroundAsyncServer(fake, max_inflight=1, queue_depth=1) as server:
            blocker = threading.Thread(
                target=lambda: request(server, "POST", "/query", {"query": "q"})
            )
            blocker.start()
            assert fake.started.wait(timeout=10)  # capacity 2: 1 executing
            status, payload, _ = request(
                server, "POST", "/batch", {"queries": ["a", "b"]}
            )
            assert status == 429  # 2 units don't fit the 1 remaining
            assert fake.rejections == [("batch", 2)]
            fake.release.set()
            blocker.join(timeout=15)


class TestMidStreamDisconnect:
    def test_batch_client_disconnect_releases_all_capacity(self):
        """A client vanishing mid-/batch-stream must not leak admission units."""
        fake = FakeService()
        with BackgroundAsyncServer(fake, max_inflight=1, queue_depth=8) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST",
                "/batch",
                body=json.dumps({"queries": ["a", "b", "c"]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert fake.started.wait(timeout=10)  # first query is executing
            conn.close()  # client walks away mid-stream
            fake.release.set()  # let the executions finish
            admission = server.runner.admission
            deadline = time.time() + 15
            while admission.occupied and time.time() < deadline:
                time.sleep(0.02)
            assert admission.occupied == 0  # every unit returned, no leak
            # full capacity is available again: a fresh request succeeds
            status, payload, _ = request(server, "POST", "/query", {"query": "q"})
            assert status == 200 and payload["value"] == 42.0

    def test_a_client_that_leaves_a_running_jobs_event_stream_ends_it(
        self, dataset, tmp_path, monkeypatch
    ):
        """The stream's next send after the client resets the connection
        raises, and the door drops the connection instead of finishing it."""
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        running, release = threading.Event(), threading.Event()
        execute = service.execute

        def held_execute(*args, **kwargs):
            running.set()
            assert release.wait(60)
            return execute(*args, **kwargs)

        monkeypatch.setattr(service, "execute", held_execute)
        send, failed = ChunkedJsonWriter.send, []

        async def watched_send(stream, payload):
            try:
                await send(stream, payload)
            except ConnectionError as error:
                failed.append(error)
                raise

        monkeypatch.setattr(ChunkedJsonWriter, "send", watched_send)
        manager = attach_jobs(
            service, str(tmp_path / "journal.jsonl"), gc_interval_seconds=3600.0
        )
        try:
            with BackgroundAsyncServer(service, max_inflight=2) as server:
                status, body, conn = request(server, "POST", "/v1/jobs", {"query": QUERY_TEXT})
                conn.close()
                assert status == 202
                assert running.wait(30)  # leased and executing: no terminal event yet
                sock = socket.create_connection(server.address, timeout=30)
                sock.sendall(
                    f"GET /v1/jobs/{body['job_id']}/events?timeout_s=60 HTTP/1.1\r\n"
                    "Host: test\r\n\r\n".encode()
                )
                received = b""
                while b"running" not in received:  # the head and the events so far
                    chunk = sock.recv(65536)
                    assert chunk
                    received += chunk
                # leave mid-stream: with a zero linger, close() resets the connection
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
                release.set()
                assert manager.wait(body["job_id"], timeout=60).state == "succeeded"
                deadline = time.time() + 30
                while not failed and time.time() < deadline:
                    time.sleep(0.02)
                assert failed  # the terminal event met the reset connection
        finally:
            release.set()


def exchange(server, *segments: bytes, pause: float = 0.0, timeout: float = 10.0) -> bytes:
    """Send raw ``segments``; everything the door answers until it closes.

    A connection the door keeps open past ``timeout`` fails the test: every
    case here either asks for ``Connection: close`` or expects to be cut.
    """
    with socket.create_connection(server.address, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for segment in segments:
            sock.sendall(segment)
            time.sleep(pause)
        answered = b""
        while piece := sock.recv(65536):
            answered += piece
        return answered


def statuses(answered: bytes) -> list[int]:
    return [int(status) for status in re.findall(rb"HTTP/1\.1 (\d{3}) ", answered)]


HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
CLOSE = b"Connection: close\r\n"


class TestWire:
    """The framing table's request rows (tests/aserve/test_protocol.py), as
    the live door answers them."""

    def test_two_pipelined_requests_in_one_segment_are_both_answered(self, live_server):
        body = json.dumps({"query": QUERY_TEXT}).encode()
        post = b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        answered = exchange(live_server, post + HEALTH + CLOSE + b"\r\n")
        assert statuses(answered) == [200, 200]
        assert answered.index(b'"kind": "what-if"') < answered.index(b'"status": "ok"')

    @pytest.mark.parametrize("pause", [0.0, 0.002], ids=["at once", "a byte at a time"])
    def test_a_request_may_arrive_in_any_number_of_segments(self, live_server, pause):
        wire = HEALTH + CLOSE + b"\r\n"
        segments = [wire] if not pause else [wire[i : i + 1] for i in range(len(wire))]
        assert statuses(exchange(live_server, *segments, pause=pause)) == [200]

    @pytest.mark.parametrize(
        "wire, status, fragment",
        [
            (HEALTH + b"X-N: v\r\n" * 64 + b"\r\n", 400, b"too many headers"),  # + Host
            # just past the reader's 64 KiB: all of it is read, so the close is clean
            (HEALTH + b"X-Pad: " + b"p" * (1 << 16) + b"\r\n\r\n", 400, b"header line too long"),
            (b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501, b"chunked"),
            (b"GET /v1/health HTTP/2.0\r\n\r\n", 505, b"unsupported protocol"),
        ],
        ids=["65 headers", "over-long line", "chunked request", "HTTP/2.0"],
    )
    def test_a_request_the_reader_rejects_is_answered_and_cut(
        self, live_server, wire, status, fragment
    ):
        answered = exchange(live_server, wire)  # returns: the door closed the connection
        assert statuses(answered) == [status] and fragment in answered
        assert b"Connection: close" in answered

    def test_oversized_body_is_413_before_it_is_read_and_the_connection_closes(self, live_server):
        head = b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (1 << 20)
        started = time.monotonic()
        answered = exchange(live_server, head)  # not one body byte sent, answered anyway
        assert statuses(answered) == [413] and b"exceeds" in answered
        assert time.monotonic() - started < 5

    def test_eof_inside_a_head_is_400_and_a_clean_eof_is_silent(self, live_server):
        with socket.create_connection(live_server.address, timeout=10) as sock:
            sock.sendall(b"GET /v1/health HT")
            sock.shutdown(socket.SHUT_WR)
            answered = sock.recv(65536)
            assert statuses(answered) == [400] and b"EOF inside headers" in answered
            assert sock.recv(65536) == b""
        with socket.create_connection(live_server.address, timeout=10) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""

    def test_http10_stays_open_only_when_it_asks(self, live_server):
        plain = b"GET /v1/health HTTP/1.0\r\n\r\n"
        assert b"Connection: close" in exchange(live_server, plain)
        asks = b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        answered = exchange(live_server, asks + plain)
        assert statuses(answered) == [200, 200]
        assert answered.count(b"Connection: keep-alive") == 1


class TestIdleTimer:
    """``keep_alive_timeout``: one timer per request read, which closes the socket."""

    TIMEOUT = 0.3

    @pytest.fixture
    def server(self):
        fake = FakeService()
        with BackgroundAsyncServer(
            fake, max_inflight=1, queue_depth=0, keep_alive_timeout=self.TIMEOUT
        ) as server:
            server.fake = fake
            yield server
            fake.release.set()

    def closes_silently_within(self, sock: socket.socket) -> float:
        started = time.monotonic()
        assert sock.recv(65536) == b""  # closed, and nothing said first
        return time.monotonic() - started

    def test_an_idle_keep_alive_connection_closes_silently(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(HEALTH + b"\r\n")
            assert statuses(sock.recv(65536)) == [200]
            assert self.TIMEOUT * 0.5 < self.closes_silently_within(sock) < 5
        with socket.create_connection(server.address, timeout=10) as sock:
            assert self.closes_silently_within(sock) < 5  # never sent a byte

    def test_a_half_sent_request_that_stalls_is_closed(self, server):
        body = b'{"query": "q"}'
        head = b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        for half in (HEALTH[:-9], head + body[:5]):  # inside the head, inside the body
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(half)
                assert self.TIMEOUT * 0.5 < self.closes_silently_within(sock) < 5
        assert not server.fake.started.is_set()
        deadline = time.time() + 5
        while server.runner.app.open_connections and time.time() < deadline:
            time.sleep(0.01)
        assert server.runner.app.open_connections == 0

    def test_a_handler_that_outlives_the_timeout_is_answered_not_cut(self, server):
        answers = []
        worker = threading.Thread(
            target=lambda: answers.append(request(server, "POST", "/query", {"query": "q"}))
        )
        worker.start()
        assert server.fake.started.wait(timeout=10)
        time.sleep(self.TIMEOUT * 3)  # the timer of the read is long past
        server.fake.release.set()
        worker.join(timeout=15)
        (status, payload, conn), = answers
        assert (status, payload) == (200, {"kind": "what-if", "value": 42.0})
        # and the connection is kept: its next request is read under a fresh timer
        status, payload, _ = request(server, "GET", "/health", conn=conn)
        assert status == 200 and payload["status"] == "ok"


class TestDrain:
    def test_drain_finishes_inflight_and_closes_service(self):
        fake = FakeService()
        server = BackgroundAsyncServer(fake, max_inflight=1, queue_depth=0).start()
        # open a keep-alive connection before the drain begins
        status, payload, conn = request(server, "GET", "/health")
        assert status == 200 and payload["status"] == "ok"
        results = []

        def slow_request():
            results.append(request(server, "POST", "/query", {"query": "q"})[:2])

        worker = threading.Thread(target=slow_request)
        worker.start()
        assert fake.started.wait(timeout=10)
        server.signal_stop()  # begin the drain; loop stays responsive
        deadline = time.time() + 10
        while not server.runner.app.draining and time.time() < deadline:
            time.sleep(0.01)
        assert server.runner.app.draining
        # existing keep-alive connections see the draining health state
        status, payload, _ = request(server, "GET", "/health", conn=conn)
        assert status == 503
        assert payload["status"] == "draining"
        # in-flight work finishes and is answered, then the server exits
        fake.release.set()
        worker.join(timeout=15)
        assert results == [(200, {"kind": "what-if", "value": 42.0})]
        server.stop()
        assert fake.closed
