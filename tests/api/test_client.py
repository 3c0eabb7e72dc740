"""Both SDK clients: typed answers, streaming, retries, deadlines, keep-alive.

Every class here runs over ``HypeRClient`` and ``AsyncHypeRClient`` alike —
they are two transports under one call core (:mod:`repro.api.calls`), so one
suite holds both to the same answers and the same failures.
"""

from __future__ import annotations

import asyncio
import gzip
import inspect
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro import EngineConfig, HypeRService
from repro.api import (
    AsyncHypeRClient,
    DeadlineExceeded,
    HypeRClient,
    OverloadedError,
    TransportError,
    WhatIfAnswer,
    avg,
    set_,
    what_if,
)
from repro.api.client import ApiStatusError
from repro.api.schemas import JobStatus
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn

from ..aserve.test_protocol import SEGMENTATIONS
from .test_calls import BODY, BROKEN, RESPONSES

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
BUILDER = (
    what_if().use("Credit").update(set_("Status", 4)).output(avg("Credit"))
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=4)


def _service(dataset):
    return HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )


@pytest.fixture(scope="module")
def address(dataset):
    with BackgroundAsyncServer(_service(dataset), max_inflight=4, queue_depth=16) as s:
        yield s.address


class Blocking:
    """Drives an ``AsyncHypeRClient`` from blocking test code.

    Awaitables run to completion on a private loop and async iterators are
    drained into lists, so one test body exercises either client.
    """

    def __init__(self, client: AsyncHypeRClient) -> None:
        self._client = client
        self._loop = asyncio.new_event_loop()

    def __getattr__(self, name):
        member = getattr(self._client, name)
        if not callable(member):
            return member

        def call(*args, **kwargs):
            result = member(*args, **kwargs)
            if inspect.isawaitable(result):
                return self._loop.run_until_complete(result)
            if hasattr(result, "__aiter__"):
                return iter(self._loop.run_until_complete(_drain(result)))
            return result

        return call

    def __enter__(self) -> "Blocking":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._client.close())
            self._loop.close()


async def _drain(stream) -> list:
    return [item async for item in stream]


@pytest.fixture(params=["sync", "aio"])
def connect(request):
    """``connect(host, port, **options)`` → a client of the parametrized kind.

    Closes whatever it handed out, so a test may skip the ``with``.
    """
    made = []

    def factory(*args, **options):
        if request.param == "sync":
            made.append(HypeRClient(*args, **options))
        else:
            made.append(Blocking(AsyncHypeRClient(*args, **options)))
        return made[-1]

    yield factory
    for client in made:
        client.close()


class TestQueries:
    def test_text_query_returns_typed_answer(self, connect, address, dataset):
        with connect(*address) as client:
            answer = client.query(QUERY_TEXT)
        assert isinstance(answer, WhatIfAnswer)
        direct = _service(dataset).execute(QUERY_TEXT)
        assert answer.value == direct.value  # bitwise through JSON

    def test_builder_and_query_object_inputs(self, connect, address):
        with connect(*address) as client:
            from_builder = client.query(BUILDER)
            from_object = client.query(BUILDER.build())
            from_text = client.query(BUILDER.text())
        assert from_builder.value == from_object.value == from_text.value

    def test_query_error_raises_with_envelope(self, connect, address):
        with connect(*address) as client:
            with pytest.raises(ApiStatusError) as excinfo:
                client.query("SELECT nonsense")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "query_syntax"

    def test_keep_alive_across_many_calls(self, connect, address):
        with connect(*address) as client:
            values = {client.query(QUERY_TEXT).value for _ in range(5)}
            assert len(values) == 1
            assert client.health()["status"] == "ok"

    def test_stats_snapshot(self, connect, address):
        with connect(*address) as client:
            client.query(QUERY_TEXT)
            snapshot = client.stats()
        assert snapshot.n_queries >= 1


class TestBatch:
    TEXTS = [QUERY_TEXT, "garbage", QUERY_TEXT.replace("= 4", "= 2")]

    def test_batch_items_with_per_query_errors(self, connect, address):
        with connect(*address) as client:
            items = client.batch_collect(self.TEXTS)
        assert [item.index for item in items] == [0, 1, 2]
        assert items[0].ok and items[2].ok
        assert not items[1].ok and items[1].error.code == "query_syntax"

    def test_batch_accepts_builders(self, connect, address):
        with connect(*address) as client:
            items = client.batch_collect([BUILDER, BUILDER.build()])
        assert all(item.ok for item in items)
        assert items[0].result.value == items[1].result.value

    def test_batch_streams_incrementally(self, connect, address):
        with connect(*address) as client:
            seen = []
            for item in client.batch([QUERY_TEXT for _ in range(4)]):
                seen.append(item)
            assert len(seen) == 4
            # connection is reusable after the stream is drained
            assert client.query(QUERY_TEXT).value == seen[0].result.value

    def test_an_empty_batch_is_one_json_answer_of_no_items(self, connect, address):
        with connect(*address) as client:
            assert client.batch_collect([]) == []
            assert client.health()["status"] == "ok"


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from the server's scripted (status, headers, body) list."""

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        script: list = self.server.script  # type: ignore[attr-defined]
        status, headers, body = script[0] if len(script) == 1 else script.pop(0)
        self.server.hits += 1  # type: ignore[attr-defined]
        if self.server.delay:  # type: ignore[attr-defined]
            time.sleep(self.server.delay)  # type: ignore[attr-defined]
        raw = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(raw)

    do_GET = do_POST  # noqa: N815

    def log_message(self, *args):  # noqa: A002
        pass


@pytest.fixture
def scripted_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.hits = 0
    server.delay = 0.0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


ANSWER = {
    "api_version": "v1",
    "kind": "what-if",
    "value": 7.0,
    "aggregate": "avg",
    "output_attribute": "Credit",
    "variant": "hyper",
    "n_scope_tuples": 1,
    "n_blocks": 1,
    "backdoor_set": [],
    "runtime_seconds": 0.0,
}
BUSY = {"error": "at capacity", "code": "rate_limited", "retry_after": 0.01}
BUSY_LONG = {"error": "at capacity", "code": "rate_limited", "retry_after": 30.0}


class TestRetriesAndDeadlines:
    def test_429_retries_honor_retry_after_then_succeed(self, connect, scripted_server):
        scripted_server.script = [
            (429, {"Retry-After": "0"}, BUSY),
            (429, {"Retry-After": "0"}, BUSY),
            (200, {}, ANSWER),
        ]
        client = connect(*scripted_server.server_address, max_retries=3)
        answer = client.query("q")
        assert answer.value == 7.0
        assert scripted_server.hits == 3

    def test_429_exhausts_retry_budget(self, connect, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "0"}, BUSY)]
        client = connect(*scripted_server.server_address, max_retries=2)
        with pytest.raises(OverloadedError) as excinfo:
            client.query("q")
        assert excinfo.value.retry_after == pytest.approx(0.01)
        assert scripted_server.hits == 3  # initial attempt + 2 retries

    def test_zero_retries_disables_retrying(self, connect, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "0"}, BUSY)]
        client = connect(*scripted_server.server_address, max_retries=0)
        with pytest.raises(OverloadedError):
            client.query("q")
        assert scripted_server.hits == 1

    def test_precise_body_hint_preferred_over_ceiled_header(self, connect, scripted_server):
        # the server ceils the Retry-After header to >= 1 s but puts the
        # precise float hint in the body; the client must use the body's
        scripted_server.script = [
            (429, {"Retry-After": "1"}, BUSY),
            (200, {}, ANSWER),
        ]
        client = connect(*scripted_server.server_address, max_retries=2)
        started = time.monotonic()
        assert client.query("q").value == 7.0
        assert time.monotonic() - started < 0.9  # slept ~0.01s, not the 1s header

    def test_deadline_beats_long_retry_after(self, connect, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "30"}, BUSY_LONG)]
        client = connect(*scripted_server.server_address, max_retries=5)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=0.2)
        assert time.monotonic() - started < 5  # did not sleep the 30 s hint
        assert scripted_server.hits == 1

    def test_deadline_bounds_slow_server(self, connect, scripted_server):
        scripted_server.script = [(200, {}, ANSWER)]
        scripted_server.delay = 1.0
        client = connect(*scripted_server.server_address, max_retries=3)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=0.2)
        assert time.monotonic() - started < 2.0

    def test_deadline_zero_like_values_fail_fast(self, connect, scripted_server):
        scripted_server.script = [(200, {}, ANSWER)]
        client = connect(*scripted_server.server_address)
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=-1.0)


# -- the failure matrix: one taxonomy on both transports -------------------------------


class RawServer:
    """A socket that answers each connection's request with scripted bytes.

    After writing an answer (one send, or one per segment of a list) it
    closes the connection — or, for a ``stall`` entry, holds it open and
    silent until the fixture ends.  A ``None`` answer never even reads the
    request: the connection is held from the moment it is accepted.
    """

    def __init__(self) -> None:
        #: (answer, stall?)
        self.script: list[tuple[bytes | list[bytes] | None, bool]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._held: list[socket.socket] = []
        self._closing = False
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            conn, _ = self._listener.accept()
            if self._closing:
                conn.close()
                return
            answer, stall = self.script.pop(0)
            if answer is None:
                self._held.append(conn)
                continue
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536) or b"\r\n\r\n"  # EOF: give up reading
            head, _, body = request.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(body) < length:
                body += conn.recv(65536) or b" " * length
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            segments = [answer] if isinstance(answer, bytes) else answer
            for segment in segments:
                conn.sendall(segment)
                time.sleep(0.01 if len(segments) == 2 else 0)  # really two segments
            if stall:
                self._held.append(conn)
            else:
                conn.close()

    def close(self) -> None:
        self._closing = True
        socket.create_connection(self.address).close()  # wakes accept()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()
        for conn in self._held:
            conn.close()


@pytest.fixture
def raw_server():
    server = RawServer()
    yield server
    server.close()


def whole(body: bytes, *, length: int | None = None, extra: bytes = b"") -> bytes:
    """A fixed-length 200 answer (``length`` may lie about the body)."""
    size = len(body) if length is None else length
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n"
        + extra
        + b"Content-Length: %d\r\n\r\n" % size
        + body
    )


def chunked(*lines: bytes) -> bytes:
    """A chunked NDJSON 200 answer, one chunk per line, terminator included."""
    head = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    chunks = b"".join(b"%x\r\n%s\r\n" % (len(line), line) for line in lines)
    return head + chunks + b"0\r\n\r\n"


ITEM = json.dumps({"index": 0, "result": ANSWER}).encode() + b"\n"
DONE = b'{"done": true, "n_queries": 1}\n'

#: the calls a row makes; "post_json" sends more than the transport's write
#: buffer and the loopback's socket buffers hold, so its send stalls
VERBS = {
    "query": lambda client: client.query("q"),
    "batch": lambda client: client.batch_collect(["q"]),
    "post_json": lambda client: client.post_json("/v1/x", {"pad": "x" * (8 << 20)}),
}

# (row, answer bytes, stall?, verb, fragment of the TransportError)
FAILURES = [
    # the stalled send, not only the stalled read, is the timeout it is
    ("peer never reads a large request", None, True, "post_json", "TimeoutError"),
    # the framing table's cut body (tests/api/test_calls.py), closed and stalled
    ("truncated body", BROKEN["cut content-length body"][0], False, "query", "truncated"),
    ("stalled body", BROKEN["cut content-length body"][0], True, "query", "truncated"),
    ("non-JSON body", whole(b"hello"), False, "query", "non-JSON body"),
    ("non-object body", whole(b"[1, 2]"), False, "query", "non-object body"),
    (
        "bad gzip",
        whole(b"not gzip", extra=b"Content-Encoding: gzip\r\n"),
        False,
        "query",
        "malformed gzip body",
    ),
    ("malformed batch body", whole(b'{"nope": 1}'), False, "batch", "malformed batch"),
    ("malformed NDJSON line", chunked(b"{oops\n", DONE), False, "batch", "malformed NDJSON"),
    ("done after too few", chunked(DONE), False, "batch", "closed after 0/1"),
    ("stream ends early", chunked(ITEM), False, "batch", "ended early: 1/1"),
    ("stalled stream", chunked(ITEM)[:-5], True, "batch", "truncated"),
]


class TestFailureMatrix:
    @pytest.mark.parametrize(
        "answer, stall, verb, fragment",
        [row[1:] for row in FAILURES],
        ids=[row[0] for row in FAILURES],
    )
    def test_same_error_class_and_request_id(
        self, connect, raw_server, answer, stall, verb, fragment
    ):
        raw_server.script = [(answer, stall), (whole(json.dumps(ANSWER).encode()), False)]
        client = connect(
            *raw_server.address, max_retries=0, timeout=0.3, gzip_min_bytes=None
        )
        with pytest.raises(TransportError) as excinfo:
            VERBS[verb](client)
        assert type(excinfo.value) is TransportError  # no stdlib exception leaks
        assert fragment in str(excinfo.value)
        assert excinfo.value.request_id == client.last_request_id != ""
        # the broken connection was dropped, not reused half-read
        assert client.query("q").value == 7.0

    @pytest.mark.parametrize("cut", SEGMENTATIONS.values(), ids=SEGMENTATIONS.keys())
    @pytest.mark.parametrize(
        "wire, closed",
        [row[:2] for row in RESPONSES.values() if row[3] == BODY],
        ids=[name for name, row in RESPONSES.items() if row[3] == BODY],
    )
    def test_every_framing_of_the_table_reads_to_the_same_answer(
        self, connect, raw_server, wire, closed, cut
    ):
        # a response the server does not close is held open: its framing alone
        # must end the read (the client would otherwise wait out its timeout)
        raw_server.script = [(cut(wire), not closed)]
        client = connect(*raw_server.address, max_retries=0, timeout=5)
        started = time.monotonic()
        assert client.query("q").value == 7.0
        assert time.monotonic() - started < 4

    def test_a_bad_head_is_retried_and_a_cut_body_never(self, connect, raw_server):
        good = (whole(BODY), False)
        bad_head = (BROKEN["malformed status line"][0], False)
        client = connect(*raw_server.address, max_retries=1, backoff_seconds=0.01)
        raw_server.script = [bad_head, good]
        assert client.query("q").value == 7.0 and raw_server.script == []
        raw_server.script = [bad_head, bad_head, good]
        with pytest.raises(TransportError, match="failed after 2 attempt.*malformed status line"):
            client.query("q")
        assert raw_server.script == [good]  # the budget was one retry
        raw_server.script = [(BROKEN["cut chunked body"][0], False), good]
        with pytest.raises(TransportError, match="truncated"):
            client.query("q")
        assert raw_server.script == [good]  # the server had answered: no second ask

    def test_blank_ndjson_lines_are_skipped(self, connect, raw_server):
        raw_server.script = [(chunked(b"\n", ITEM, b"\r\n", DONE), False)]
        client = connect(*raw_server.address, max_retries=0)
        (item,) = client.batch_collect(["q"])
        assert item.index == 0 and item.result.value == 7.0

    def test_gzip_answers_are_decoded(self, connect, raw_server):
        body = gzip.compress(json.dumps(ANSWER).encode())
        raw_server.script = [(whole(body, extra=b"Content-Encoding: gzip\r\n"), False)]
        assert connect(*raw_server.address).query("q").value == 7.0

    def test_wait_budget_error_names_the_last_poll(self, connect, scripted_server):
        running = JobStatus(
            job_id="j1", client_id="", state="running", kind="query",
            priority="normal", completed=0, total=1, attempts=1, max_attempts=3,
            created_unix=0.0,
        )  # fmt: skip
        scripted_server.script = [(200, {}, running.to_json())]
        client = connect(*scripted_server.server_address)
        with pytest.raises(DeadlineExceeded) as excinfo:
            client.wait("j1", timeout=0.2, poll_seconds=0.05)
        assert scripted_server.hits >= 2
        assert excinfo.value.request_id == client.last_request_id != ""
