"""The sans-IO call core, tested without a socket.

Everything both SDK transports share — encoding, the retry decision, response
decoding, the NDJSON line decoders and the verbs — is decided in
:mod:`repro.api.calls`; these tests pin it as tables, and pin the contract
"one table row = one verb" against the server's route table.
"""

from __future__ import annotations

import ast
import gzip
import inspect
import json
from pathlib import Path

import pytest

from repro.api import calls
from repro.api.calls import (
    ApiStatusError,
    BatchLines,
    Call,
    ClientVerbs,
    Deadline,
    DeadlineExceeded,
    EventLines,
    OverloadedError,
    PendingCall,
    Response,
    ServerDeadlineExceeded,
    TransportError,
    encode,
    render_request,
)
from repro.api.endpoints import V1_ENDPOINTS, V1_ROUTES
from repro.api.schemas import BatchItem, JobStatus

from ..aserve.test_protocol import SEGMENTATIONS, read_requests

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


def pending_call(call=None, *, attempt=0, **settings) -> PendingCall:
    pending = PendingCall(call or Call("POST", "/v1/query", {"query": "q"}), ClientVerbs(**settings))
    pending.attempt = attempt
    return pending


def raw_json(body) -> bytes:
    return json.dumps(body).encode()


# -- the module is sans-IO -------------------------------------------------------------


def test_core_imports_no_io_library_and_never_sleeps():
    tree = ast.parse(Path(calls.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add((node.module or "").split(".")[0])
    forbidden = {"asyncio", "http", "socket", "select", "selectors", "ssl", "urllib"}
    assert not imported & forbidden
    sleeps = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "sleep"
    ]
    assert not sleeps


# -- encode ----------------------------------------------------------------------------


class TestEncode:
    def test_small_payload_is_plain_json_with_the_three_headers(self):
        body, headers = encode({"query": "q"}, "me", 2048, "rid-1")
        assert json.loads(body) == {"query": "q"}
        assert headers == {
            "Accept-Encoding": "gzip",
            "X-Client-Id": "me",
            "Content-Type": "application/json",
            "X-Request-Id": "rid-1",
        }

    def test_no_payload_no_body_and_anonymous_clients_send_no_id(self):
        body, headers = encode(None, "", 2048, "rid-1")
        assert body is None
        assert headers == {"Accept-Encoding": "gzip", "X-Request-Id": "rid-1"}

    def test_gzip_at_threshold_is_deterministic(self):
        payload = {"query": "q" * 100}
        size = len(json.dumps(payload).encode())
        first, headers = encode(payload, "", size, "rid")
        second, _ = encode(payload, "", size, "rid")
        assert headers["Content-Encoding"] == "gzip"
        assert first == second  # mtime=0: same body, same bytes
        assert json.loads(gzip.decompress(first)) == payload
        below, headers = encode(payload, "", size + 1, "rid")
        assert "Content-Encoding" not in headers and json.loads(below) == payload
        never, headers = encode(payload, "", None, "rid")
        assert "Content-Encoding" not in headers and never == below

    def test_a_pending_call_is_encoded_once_under_its_own_id(self):
        pending = pending_call(client_id="me")
        assert pending.headers["X-Request-Id"] == pending.request_id != ""
        assert pending.deadline.request_id == pending.request_id
        assert pending.headers["X-Client-Id"] == "me"

    def test_a_request_is_one_byte_string_the_door_reads_back(self):
        pending = pending_call(client_id="me", host="db", port=81)
        head, _, body = pending.request.partition(b"\r\n\r\n")
        assert json.loads(body) == {"query": "q"}
        assert head.split(b"\r\n")[:2] == [b"POST /v1/query HTTP/1.1", b"Host: db:81"]
        (read,), _unread = read_requests(pending.request)
        assert (read.method, read.target, read.body) == ("POST", "/v1/query", body)
        sent = {name.lower(): value for name, value in pending.headers.items()}
        assert read.headers == {"host": "db:81", **sent, "content-length": str(len(body))}
        bare = render_request("GET", "/v1/health", "db:81", {}, b"")
        assert bare == b"GET /v1/health HTTP/1.1\r\nHost: db:81\r\nContent-Length: 0\r\n\r\n"


# -- the retry decision ----------------------------------------------------------------

BOOM = ConnectionResetError("boom")
BUSY = {"error": "at capacity", "code": "rate_limited", "retry_after": 0.01}


@pytest.mark.parametrize(
    "attempt, max_retries, budget, expected",
    [
        (0, 3, None, 0.05),
        (1, 3, None, 0.10),
        (2, 3, None, 0.20),  # exponential in the attempts spent
        (3, 3, None, TransportError),  # budget gone
        (0, 0, None, TransportError),  # retrying disabled
        (0, 3, 10.0, 0.05),
        (2, 3, 0.1, DeadlineExceeded),  # 0.2 s backoff > 0.1 s left: never slept
        (3, 3, 0.1, TransportError),  # no retry left wins over the deadline
    ],
)
def test_transport_failure_decision(attempt, max_retries, budget, expected):
    pending = pending_call(
        Call("GET", "/v1/health", None, budget),
        attempt=attempt,
        max_retries=max_retries,
        backoff_seconds=0.05,
    )
    if isinstance(expected, float):
        assert pending.backoff(BOOM) == pytest.approx(expected)
        assert pending.attempt == attempt + 1
    else:
        with pytest.raises(expected) as excinfo:
            pending.backoff(BOOM)
        assert excinfo.value.request_id == pending.request_id
        assert pending.attempt == attempt


@pytest.mark.parametrize(
    "body, header, budget, expected",
    [
        (BUSY, "1", None, 0.01),  # the precise body hint beats the ceiled header
        ({"error": "busy", "code": "rate_limited"}, "2", None, 2.0),
        ({"error": "busy", "code": "rate_limited"}, None, None, 1.0),
        ({**BUSY, "retry_after": -3}, None, None, 0.0),
        ({**BUSY, "retry_after": 30.0}, "30", 0.2, DeadlineExceeded),
        ({**BUSY, "retry_after": 0.0}, "0", 0.2, 0.0),
    ],
)
def test_overload_decision(body, header, budget, expected):
    pending = pending_call(Call("POST", "/v1/query", {}, budget), max_retries=2)
    assert pending.overloaded(503, raw_json(body), None, header) is None
    if isinstance(expected, float):
        assert pending.overloaded(429, raw_json(body), None, header) == pytest.approx(expected)
        assert pending.attempt == 1
    else:
        with pytest.raises(expected) as excinfo:
            pending.overloaded(429, raw_json(body), None, header)
        assert excinfo.value.request_id == pending.request_id


def test_a_429_past_the_budget_is_an_answer_not_a_retry():
    pending = pending_call(attempt=2, max_retries=2)
    assert pending.overloaded(429, raw_json(BUSY), None, "0") is None
    with pytest.raises(OverloadedError) as excinfo:
        pending.decode(429, raw_json(BUSY), None)
    assert excinfo.value.retry_after == pytest.approx(0.01)
    assert excinfo.value.request_id == pending.request_id


def test_deadline_paces_and_caps():
    assert Deadline(None).pace(99.0) == 99.0
    assert Deadline(None).io_timeout(60.0) == 60.0
    budget = Deadline(0.5, "rid")
    assert budget.pace(0.1) == 0.1
    assert 0 < budget.io_timeout(60.0) <= 0.5
    with pytest.raises(DeadlineExceeded) as excinfo:
        budget.pace(0.5)  # sleeping exactly through the deadline is past it
    assert excinfo.value.request_id == "rid"
    spent = Deadline(-1.0, "rid")
    assert spent.io_timeout(60.0) == 1e-3  # never a zero/negative socket timeout
    with pytest.raises(DeadlineExceeded):
        spent.check()


# -- decode ----------------------------------------------------------------------------


class TestDecode:
    def test_accepted_statuses_parse(self):
        pending = pending_call(Call("POST", "/v1/query", {}, None, calls.answer_from_json))
        assert pending.decode(200, raw_json(ANSWER), None).value == 7.0
        gzipped = gzip.compress(raw_json(ANSWER))
        assert pending.decode(200, gzipped, " GZip ").value == 7.0
        job = {"api_version": "v1", "job_id": "j1", "state": "queued", "kind": "query"}
        submit = Call("POST", "/v1/jobs", {}, None, dict, accept=(200, 202))
        assert pending_call(submit).decode(202, raw_json(job), None)["job_id"] == "j1"
        assert pending_call(Call("GET", "/v1/health")).decode(200, b"", None) == {}

    def test_text_call_returns_text_but_still_types_errors(self):
        pending = pending_call(Call("GET", "/v1/metrics", text=True))
        assert pending.decode(200, b"hyper_up 1\n", None) == "hyper_up 1\n"
        assert pending.decode(200, gzip.compress(b"x 1\n"), "gzip") == "x 1\n"
        with pytest.raises(ApiStatusError) as excinfo:
            pending.decode(500, raw_json({"error": "boom", "code": "internal"}), None)
        assert excinfo.value.code == "internal"

    @pytest.mark.parametrize(
        "status, body, error_class, code",
        [
            (400, {"error": "bad", "code": "query_syntax"}, ApiStatusError, "query_syntax"),
            (404, {"error": "gone", "code": "not_found"}, ApiStatusError, "not_found"),
            (429, BUSY, OverloadedError, "rate_limited"),
            (504, {"error": "late", "code": "deadline_exceeded"}, ServerDeadlineExceeded, "deadline_exceeded"),
            (500, {"unexpected": 1}, ApiStatusError, "error"),  # not an envelope
            (202, {"error": "odd", "code": "internal"}, ApiStatusError, "internal"),  # not accepted
        ],
    )
    def test_error_statuses_raise_typed_errors(self, status, body, error_class, code):
        pending = pending_call()
        with pytest.raises(error_class) as excinfo:
            pending.decode(status, raw_json(body), None)
        error = excinfo.value
        assert type(error) is error_class
        assert (error.status, error.code, error.body) == (status, code, body)
        assert error.request_id == pending.request_id
        assert pending.request_id in str(error)

    def test_server_deadline_is_both_a_status_error_and_a_deadline(self):
        assert issubclass(ServerDeadlineExceeded, ApiStatusError)
        assert issubclass(ServerDeadlineExceeded, DeadlineExceeded)

    @pytest.mark.parametrize(
        "raw, encoding, fragment",
        [
            (b"hello", None, "non-JSON body"),
            (b"\xff\xfe", None, "non-JSON body"),
            (b"[1, 2]", None, "non-object body"),
            (b"not gzip at all", "gzip", "malformed gzip body"),
            (gzip.compress(b"{}")[:-6], "gzip", "malformed gzip body"),
        ],
    )
    def test_undecodable_bytes_are_transport_errors_with_the_id(self, raw, encoding, fragment):
        pending = pending_call()
        for status in (200, 500):
            with pytest.raises(TransportError) as excinfo:
                pending.decode(status, raw, encoding)
            assert fragment in str(excinfo.value)
            assert excinfo.value.request_id == pending.request_id


# -- the framing table: responses, as the clients' one reader sees them ------------------
#
# The same wire bytes are read in one segment, split after the head, and a
# byte at a time (``SEGMENTATIONS``, the ones the door's request reader is held
# to in ``tests/aserve/test_protocol.py``); ``tests/api/test_client.py`` serves
# the rows to both clients over a socket.

BODY = raw_json(ANSWER)


def framed(head: bytes, body: bytes = b"") -> bytes:
    return head.replace(b"\n", b"\r\n") + b"\r\n" + body


def in_chunks(*chunks: bytes, last: bytes = b"0\r\n\r\n") -> bytes:
    return b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks) + last


OK = b"HTTP/1.1 200 OK\n"
CHUNKED = OK + b"Transfer-Encoding: chunked\n"
SIZED = b"Content-Length: %d\n" % len(BODY)
TRAILED = in_chunks(BODY, last=b"0;last\r\nX-Sum: 1\r\nX-More: 2\r\n\r\n")

#: id → (wire bytes, closed by the server after them?, status, body, will_close)
RESPONSES = {
    "content-length": (
        framed(OK + b"Content-Type: application/json\n" + SIZED, BODY), False, 200, BODY, False,
    ),
    "content-length, connection: close": (
        framed(OK + b"Connection: close\n" + SIZED, BODY), True, 200, BODY, True,
    ),
    "empty body": (framed(OK + b"Content-Length: 0\n"), False, 200, b"", False),
    "chunked": (framed(CHUNKED, in_chunks(BODY[:7], BODY[7:])), False, 200, BODY, False),
    "chunked, extension and trailers": (
        framed(OK + b"transfer-encoding: Chunked\n", TRAILED.replace(b"\r\n", b";x=1\r\n", 1)),
        False, 200, BODY, False,
    ),
    "close-delimited HTTP/1.0 stream": (
        framed(b"HTTP/1.0 200 OK\nContent-Type: application/x-ndjson\nConnection: close\n", BODY),
        True, 200, BODY, True,
    ),
    "HTTP/1.0 keep-alive without a length still closes": (
        framed(b"HTTP/1.0 200 OK\nConnection: keep-alive\n", BODY), True, 200, BODY, True,
    ),
    "close-delimited although HTTP/1.1": (framed(OK, BODY), True, 200, BODY, True),
    "HTTP/1.0 closes by default": (
        framed(b"HTTP/1.0 429 Too Many Requests\nContent-Length: 2\nRetry-After: 1\n", b"{}"),
        True, 429, b"{}", True,
    ),
    "HTTP/1.0 keep-alive when asked": (
        framed(b"HTTP/1.0 200 OK\nConnection: Keep-Alive\nContent-Length: 2\n", b"{}"),
        False, 200, b"{}", False,
    ),
    "HTTP/1.1 connection: keep-alive": (
        framed(OK + b"Connection: keep-alive\n" + SIZED, BODY), False, 200, BODY, False,
    ),
    "connection: Close, capitalised": (
        framed(OK + b"Connection: Close\n" + SIZED, BODY), True, 200, BODY, True,
    ),
    "close in a connection token list": (
        framed(OK + b"Connection: TE, close\n" + SIZED, BODY), True, 200, BODY, True,
    ),
    "upper-case names, padded values": (
        framed(OK + b"CONTENT-LENGTH:   %d  \n" % len(BODY), BODY), False, 200, BODY, False,
    ),
    "a header value holding colons": (
        framed(OK + b"X-Note: a:b:c\n" + SIZED, BODY), False, 200, BODY, False,
    ),
    "status line without a reason": (
        framed(b"HTTP/1.1 200\n" + SIZED, BODY), False, 200, BODY, False,
    ),
    "a 404 envelope": (
        framed(b"HTTP/1.1 404 Not Found\nContent-Length: 2\n", b"{}"), False, 404, b"{}", False,
    ),
    "content-length 0, connection: close": (
        framed(OK + b"Content-Length: 0\nConnection: close\n"), True, 200, b"", True,
    ),
    "chunked, one byte a chunk": (
        framed(CHUNKED, in_chunks(*(BODY[i : i + 1] for i in range(len(BODY))))),
        False, 200, BODY, False,
    ),
    "chunked, upper-case hex sizes": (
        framed(CHUNKED, b"A\r\n%s\r\nB\r\n%s\r\n" % (BODY[:10], BODY[10:21]) + in_chunks(BODY[21:])),
        False, 200, BODY, False,
    ),
    "chunked, then the server closes": (
        framed(CHUNKED + b"Connection: close\n", in_chunks(BODY)), True, 200, BODY, True,
    ),
    "chunked wins over content-length": (
        framed(CHUNKED + b"Content-Length: 3\n", in_chunks(BODY)), False, 200, BODY, False,
    ),
    "chunked, no chunks": (framed(CHUNKED, in_chunks()), False, 200, b"", False),
}


def fed(segments, *, closed: bool) -> Response:
    response = Response()
    for segment in segments:
        if segment:
            response.feed(segment)
    if closed:
        response.feed(b"")
    return response


@pytest.mark.parametrize("cut", SEGMENTATIONS.values(), ids=SEGMENTATIONS.keys())
@pytest.mark.parametrize("row", RESPONSES.values(), ids=RESPONSES.keys())
def test_response_framings_read_the_same_however_the_bytes_arrive(row, cut):
    wire, closed, status, body, will_close = row
    response = fed(cut(wire), closed=closed)
    assert (response.status, response.done, response.will_close) == (status, True, will_close)
    assert b"".join(response.take()) == body and response.take() == []
    if status == 429:
        assert response.headers["retry-after"] == "1"  # names are lower-cased


def test_the_head_is_known_before_the_body_and_pieces_leave_as_they_arrive():
    wire = RESPONSES["chunked"][0]
    head_end = wire.index(b"\r\n\r\n") + 4
    response = Response()
    response.feed(wire[: head_end - 1])
    assert response.status is None and not response.done
    response.feed(wire[head_end - 1 : head_end])
    assert response.status == 200 and response.headers["transfer-encoding"] == "chunked"
    response.feed(wire[head_end : head_end + 12])  # "7\r\n" + the chunk + its CRLF
    assert response.take() == [BODY[:7]] and not response.done


#: id → (wire bytes, closed after them?, error class, fragment): a head that
#: cannot be one is a ConnectionError (retried), a cut body an EOFError (never)
BROKEN = {
    "malformed status line": (framed(b"HTTP 200\n"), False, ConnectionError, "malformed status"),
    "status that is no number": (
        framed(b"HTTP/1.1 OK\n"), False, ConnectionError, "malformed status",
    ),
    "closed before any byte": (b"", True, ConnectionError, "closed the connection"),
    "closed inside the head": (
        b"HTTP/1.1 200 OK\r\nContent-Le", True, ConnectionError, "truncated the head",
    ),
    "invalid content-length": (
        framed(OK + b"Content-Length: -1\n"), False, ConnectionError, "invalid Content-Length",
    ),
    "bad chunk size": (framed(CHUNKED, b"zz\r\n"), False, ConnectionError, "bad chunk size"),
    "cut content-length body": (
        framed(OK + b"Content-Length: 100\n", b'{"val'), True, EOFError, "mid-body",
    ),
    "cut chunked body": (framed(CHUNKED, in_chunks(BODY, last=b"")), True, EOFError, "mid-body"),
}


@pytest.mark.parametrize("cut", SEGMENTATIONS.values(), ids=SEGMENTATIONS.keys())
@pytest.mark.parametrize("row", BROKEN.values(), ids=BROKEN.keys())
def test_broken_responses_fail_the_same_however_the_bytes_arrive(row, cut):
    wire, closed, error_class, fragment = row
    with pytest.raises(error_class, match=fragment) as excinfo:
        fed(cut(wire), closed=closed)
    assert type(excinfo.value) is error_class


# -- NDJSON line decoders --------------------------------------------------------------


def item_line(index: int) -> bytes:
    return raw_json({"index": index, "result": ANSWER}) + b"\n"


class TestLineDecoders:
    def test_batch_lines_count_against_done(self):
        decoder = BatchLines(2)
        items = [decoder.feed(line) for line in (item_line(1), b"\r\n", b"", item_line(0))]
        assert [i.index for i in items if i is not None] == [1, 0]
        assert all(isinstance(i, BatchItem) for i in items if i is not None)
        assert not decoder.done
        assert decoder.feed(b'{"done": true, "n_queries": 2}\n') is None  # bookkeeping
        assert decoder.done

    def test_batch_done_after_too_few_results(self):
        decoder = BatchLines(3)
        decoder.feed(item_line(0))
        with pytest.raises(TransportError, match="closed after 1/3"):
            decoder.feed(b'{"done": true}')

    def test_batch_bytes_ending_before_done(self):
        decoder = BatchLines(2)
        decoder.feed(item_line(0))
        with pytest.raises(TransportError, match="ended early: 1/2"):
            decoder.end()

    def test_batch_whole_body_fallback(self):
        error = {"error": "bad", "code": "query_syntax"}
        items = list(BatchLines(2).whole({"results": [ANSWER, error]}))
        assert [(i.index, i.ok) for i in items] == [(0, True), (1, False)]
        assert items[1].error.code == "query_syntax"
        with pytest.raises(TransportError, match="malformed batch response"):
            list(BatchLines(1).whole({"nope": 1}))

    def test_event_lines_yield_done_last_and_may_just_end(self):
        decoder = EventLines()
        assert decoder.feed(b'{"event": "progress", "done": false}\n') == {
            "event": "progress",
            "done": False,
        }
        assert decoder.feed(b"  \n") is None and not decoder.done
        last = decoder.feed(b'{"done": true, "state": "succeeded"}\n')
        assert last == {"done": True, "state": "succeeded"} and decoder.done
        EventLines().end()  # a close-delimited stream simply ends

    @pytest.mark.parametrize("cut", SEGMENTATIONS.values(), ids=SEGMENTATIONS.keys())
    def test_a_body_cut_anywhere_yields_the_same_items(self, cut):
        done = b'{"done": true, "n_queries": 2}'
        body = item_line(1) + b"\r\n" + item_line(0) + done  # its last line unterminated
        decoder = BatchLines(2)
        items = [item for piece in cut(body) for item in decoder.take(piece)]
        assert not decoder.done  # the done line has no newline yet
        items += decoder.finish()
        assert [item.index for item in items] == [1, 0] and decoder.done
        # lines after the done line are read past, not fed
        assert list(decoder.take(b"{oops\n")) == [] == list(decoder.finish())
        early = BatchLines(2)
        assert len(list(early.take(item_line(0)))) == 1
        with pytest.raises(TransportError, match="ended early: 1/2"):
            list(early.finish())

    @pytest.mark.parametrize("decoder", [BatchLines(1), EventLines()])
    @pytest.mark.parametrize("line", [b"{not json}\n", b"[1]\n", b"\xff\n"])
    def test_malformed_lines_are_transport_errors(self, decoder, line):
        with pytest.raises(TransportError, match="malformed NDJSON line"):
            decoder.feed(line)

    def test_stream_errors_carry_the_call_id_once_begun(self):
        client, decoder = ClientVerbs(), BatchLines(1)
        pending = client._begin(Call("POST", "/v1/batch", {}), decoder)
        assert client.last_request_id == pending.request_id
        for fail in (decoder.end, lambda: decoder.feed(b"?"), lambda: list(decoder.whole({}))):
            with pytest.raises(TransportError) as excinfo:
                fail()
            assert excinfo.value.request_id == pending.request_id


# -- verbs <-> route table -------------------------------------------------------------


class Recorder(ClientVerbs):
    """A transport that makes no call: each verb answers with its own Call."""

    def _run(self, call):
        return call

    def _stream(self, call, decoder):
        return call


#: arguments for the verbs that need some; a new verb with required
#: arguments fails ``made_calls`` until it is listed here
VERB_ARGS = {
    "query": ("q",),
    "update": ({"R": {"A": [1.0]}},),
    "batch": (["q1", "q2"],),
    "prepare": (["q"],),
    "submit_job": ("q",),
    "job": ("j1",),
    "job_result": ("j1",),
    "cancel_job": ("j1",),
    "job_events": ("j1",),
}
#: not endpoint verbs: the two generic doors the cluster's internal protocol uses
GENERIC = {"get_json", "post_json"}


def made_calls() -> dict[str, Call]:
    client = Recorder(trace=True)
    verbs = [
        name
        for name, member in inspect.getmembers(ClientVerbs, inspect.isfunction)
        if not name.startswith("_") and name not in GENERIC
    ]
    return {name: getattr(client, name)(*VERB_ARGS.get(name, ())) for name in verbs}


def routed_row(call: Call) -> str | None:
    matched = V1_ROUTES.match(call.method, call.path.partition("?")[0])
    return matched[0].name if matched else None


def test_every_table_row_has_exactly_one_verb_and_every_verb_a_row():
    rows = {name: routed_row(call) for name, call in made_calls().items()}
    assert None not in rows.values(), rows  # every verb lands on a row
    by_row: dict[str, list[str]] = {}
    for verb, row in rows.items():
        by_row.setdefault(row, []).append(verb)
    # a new row without a verb, or two verbs for one row, fails here
    assert {row: len(verbs) for row, verbs in by_row.items()} == {
        endpoint.name: 1 for endpoint in V1_ENDPOINTS
    }


def test_verbs_send_what_the_row_validates_and_parse_what_it_answers():
    made = made_calls()
    for name, call in made.items():
        endpoint, _ = V1_ROUTES.match(call.method, call.path.partition("?")[0])
        if endpoint.schema is not None:
            endpoint.schema.from_json(call.payload)  # strict: raises on drift
        else:
            assert call.payload in (None, {})
    assert made["query"].path == "/v1/query?trace=1"  # the client's trace default
    assert made["submit_job"].accept == (200, 202)
    assert made["metrics"].text and made["job"].parse == JobStatus.from_json
    assert made["batch"].payload["queries"] == ["q1", "q2"]
    assert Recorder().job_events("j1", timeout_s=2.5).path == "/v1/jobs/j1/events?timeout_s=2.5"


def test_deadline_budget_is_forwarded_as_server_deadline_ms():
    client = Recorder()
    assert client.query("q", deadline=1.5).payload["deadline_ms"] == 1500
    assert client.query("q", deadline=1.5, deadline_ms=20).payload["deadline_ms"] == 20
    assert "deadline_ms" not in client.query("q").payload
    assert client.query("q", deadline=1.5).deadline == 1.5
    assert client.query("q").path == "/v1/query"
