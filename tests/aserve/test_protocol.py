"""Wire-level tests of the minimal HTTP/1.1 parser and renderers."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.aserve.protocol import (
    ChunkedJsonWriter,
    HttpProtocolError,
    read_request,
)


def _after_head(wire: bytes) -> list[bytes]:
    """Cut after the head's blank line (in half when there is none)."""
    end = wire.find(b"\r\n\r\n")
    cut = end + 4 if end >= 0 else len(wire) // 2
    return [wire[:cut], wire[cut:]]


#: the ways the same wire bytes may arrive; the clients' response reader is
#: held to the same three in ``tests/api/test_calls.py``
SEGMENTATIONS = {
    "one segment": lambda wire: [wire],
    "head, then body": _after_head,
    "a byte at a time": lambda wire: [wire[i : i + 1] for i in range(len(wire))],
}


def _outcome(result):
    if isinstance(result, HttpProtocolError):
        return (result.status, str(result), result.close)
    return result


def read_requests(data: bytes, count: int = 1, *, max_body: int = 4096, limit: int = 2**16):
    """What ``count`` ``read_request`` calls make of ``data`` then EOF.

    Read under every segmentation — the reader awaits while the bytes trickle
    in — and the outcomes (requests, a final ``HttpProtocolError``, and the
    bytes left unread) must be the same for all of them.
    """

    async def _run(segments):
        reader = asyncio.StreamReader(limit=limit)

        async def trickle():
            for segment in segments:
                reader.feed_data(segment)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(trickle())
        results = []
        for _ in range(count):
            try:
                results.append(await read_request(reader, max_body_bytes=max_body))
            except HttpProtocolError as error:
                results.append(error)
                break
        await feeder
        return results, await reader.read()

    runs = [asyncio.run(_run(cut(data))) for cut in SEGMENTATIONS.values()]
    results, unread = runs[0]
    for other, other_unread in runs[1:]:
        assert [_outcome(r) for r in other] == [_outcome(r) for r in results]
        assert other_unread == unread
    return results, unread


def parse(data: bytes, max_body: int = 4096):
    (result,), _unread = read_requests(data, max_body=max_body)
    if isinstance(result, HttpProtocolError):
        raise result
    return result


def parse_two(data: bytes, max_body: int = 4096):
    (first, second), _unread = read_requests(data, 2, max_body=max_body)
    return first, second


HEALTH = b"GET /health HTTP/1.1\r\n"


#: id → (request bytes, kept alive?): the version/``Connection`` rule of
#: ``repro.api.core.keeps_alive``, which the clients' response reader follows
#: too (the HTTP/1.0 rows of ``RESPONSES`` in ``tests/api/test_calls.py``)
KEEP_ALIVE = {
    "HTTP/1.1 by default": (b"GET / HTTP/1.1\r\n\r\n", True),
    "HTTP/1.1 connection: close": (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", False),
    "HTTP/1.0 by default": (b"GET / HTTP/1.0\r\n\r\n", False),
    "HTTP/1.0 keep-alive": (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", True),
    "HTTP/1.0 Keep-Alive": (b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", True),
    "HTTP/1.0 connection: close": (b"GET / HTTP/1.0\r\nConnection: close\r\n\r\n", False),
    "HTTP/1.1 keep-alive": (b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", True),
    "HTTP/1.1 Close": (b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", False),
    "HTTP/1.1 close in a token list": (b"GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n", False),
}


class TestReadRequest:
    def test_get(self):
        request = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.target == "/health"
        assert request.headers["host"] == "x"
        assert request.body == b""

    @pytest.mark.parametrize("wire, kept", KEEP_ALIVE.values(), ids=KEEP_ALIVE.keys())
    def test_keep_alive_follows_the_version_and_connection_rule(self, wire, kept):
        assert parse(wire).keep_alive is kept

    def test_post_with_body(self):
        body = b'{"query": "q"}'
        request = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        assert request.method == "POST"
        assert request.body == body

    def test_the_target_keeps_its_query_string(self):
        # splitting it off is the request core's (ApiRequest)
        assert parse(b"GET /stats?verbose=1 HTTP/1.1\r\n\r\n").target == "/stats?verbose=1"

    def test_eof_between_requests_is_none(self):
        assert parse(b"") is None

    def test_eof_inside_a_head_is_400(self):
        for cut_short in (b"GET /hea", HEALTH, HEALTH + b"Host: x\r\n", HEALTH + b"Host: x\r\n\r"):
            with pytest.raises(HttpProtocolError) as excinfo:
                parse(cut_short)
            assert (excinfo.value.status, excinfo.value.close) == (400, True)
            assert "EOF inside headers" in str(excinfo.value)

    def test_pipelined_requests_parse_sequentially(self):
        first, second = parse_two(
            b"GET /health HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n"
        )
        assert first.target == "/health"
        assert second.target == "/stats"

    def test_a_pipelined_request_stays_buffered_behind_a_body(self):
        body = b'{"query": "q"}'
        post = b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        (first, second), unread = read_requests(post + HEALTH + b"\r\n" + b"GET /st", 2)
        assert (first.target, first.body) == ("/query", body)
        assert (second.target, second.body) == ("/health", b"")
        assert unread == b"GET /st"  # the third, half-arrived: untouched

    def test_oversized_body_is_413_without_reading(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /query HTTP/1.1\r\nContent-Length: 9000\r\n\r\n", max_body=100)
        assert excinfo.value.status == 413
        assert excinfo.value.close
        # the body that did arrive is left where it is: unread
        sent = b"POST /query HTTP/1.1\r\nContent-Length: 9000\r\n\r\n" + b"x" * 300
        (error,), unread = read_requests(sent, max_body=100)
        assert error.status == 413 and unread == b"x" * 300

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_version_is_505(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"GET / HTTP/2.0\r\n\r\n")
        assert excinfo.value.status == 505

    def test_chunked_request_body_is_501(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501

    def test_invalid_content_length_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: nan\r\n\r\n")
        assert excinfo.value.status == 400
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert excinfo.value.status == 400

    def test_malformed_header_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert excinfo.value.status == 400

    def test_header_count_limit_is_400(self):
        def with_headers(count: int) -> bytes:
            return HEALTH + b"".join(b"X-%d: v\r\n" % i for i in range(count)) + b"\r\n"

        assert len(parse(with_headers(64)).headers) == 64
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(with_headers(65))
        assert (excinfo.value.status, str(excinfo.value)) == (400, "too many headers")

    def test_overlong_header_line_is_400(self):
        fits = HEALTH + b"X-Pad: " + b"p" * 900 + b"\r\n\r\n"
        (request,), _ = read_requests(fits, limit=1024)
        assert len(request.headers["x-pad"]) == 900
        (error,), _ = read_requests(fits.replace(b"p" * 900, b"p" * 2000), limit=1024)
        assert (error.status, str(error), error.close) == (400, "header line too long", True)


class _StubWriter:
    def __init__(self):
        self.data = bytearray()

    def write(self, chunk: bytes) -> None:
        self.data += chunk

    async def drain(self) -> None:
        pass


class TestChunkedJsonWriter:
    def test_ndjson_chunk_framing(self):
        writer = _StubWriter()

        async def _run():
            stream = ChunkedJsonWriter(writer)
            await stream.start()
            await stream.send({"index": 0})
            await stream.send({"done": True})
            await stream.finish()

        asyncio.run(_run())
        head, _, tail = bytes(writer.data).partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Type: application/x-ndjson" in head
        # decode the chunked framing by hand and check NDJSON lines
        lines = []
        rest = tail
        while True:
            size_hex, _, rest = rest.partition(b"\r\n")
            size = int(size_hex, 16)
            if size == 0:
                break
            chunk, rest = rest[:size], rest[size + 2 :]
            lines.append(json.loads(chunk))
        assert lines == [{"index": 0}, {"done": True}]
