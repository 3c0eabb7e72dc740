"""Minimal HTTP/1.1 wire protocol for the asyncio serving front-end.

Parses requests from an :class:`asyncio.StreamReader` (the head in one read,
``Content-Length`` bodies, keep-alive semantics) and renders fixed-length JSON
responses plus **chunked NDJSON streams** — the framing the ``/batch``
endpoint uses to push per-query results as they complete.

Deliberately the small subset of RFC 9112 the service needs, stdlib only:

* request bodies are ``Content-Length`` framed (chunked *request* bodies are
  answered ``501``);
* header folding, bare-LF line ends, trailers and HTTP/2 are out of scope;
* a body whose declared length exceeds the limit is rejected ``413`` *before*
  it is read — an overload response never costs a 4 MiB read;
* keep-alive follows the version defaults (HTTP/1.1 persistent unless
  ``Connection: close``; HTTP/1.0 only with ``Connection: keep-alive``) —
  :func:`repro.api.core.keeps_alive`, the rule the clients read responses by.

Malformed input raises :class:`HttpProtocolError`, which carries both the
status to answer with and whether the connection can survive the error
(a truncated body cannot; an oversized-but-unread one can not either, since
the unread bytes would be parsed as the next request line).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..api.core import PayloadError, check_body_length, keeps_alive, parse_content_length

__all__ = [
    "ChunkedJsonWriter",
    "HttpProtocolError",
    "REASON_PHRASES",
    "Request",
    "read_request",
    "render_response",
]

MAX_HEADER_COUNT = 64

REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HttpProtocolError(Exception):
    """A request the parser rejects; ``status`` is the HTTP answer.

    ``close=True`` means the connection's framing is no longer trustworthy
    (unread body bytes, truncated input) and it must be closed after the
    error response.
    """

    def __init__(self, status: int, message: str, *, close: bool = True) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return keeps_alive(self.version, self.headers.get("connection", ""))


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> Request | None:
    """Parse the next request; ``None`` on clean EOF between requests.

    The head is one read — through its blank line, whatever else is already
    buffered stays for the body and the next request — parsed synchronously.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HttpProtocolError(400, "unexpected EOF inside headers") from None
    except asyncio.LimitOverrunError:  # no blank line within the stream's limit
        raise HttpProtocolError(400, "header line too long") from None
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not all(parts):
        raise HttpProtocolError(400, "malformed request line")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpProtocolError(505, f"unsupported protocol version {version!r}")
    if len(lines) > MAX_HEADER_COUNT:
        raise HttpProtocolError(400, "too many headers")
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpProtocolError(501, "chunked request bodies are not supported")

    # the length and limit policy (texts and thresholds) is the request
    # core's; an oversized body is deliberately left unread — the 413 goes
    # out immediately and the connection closes rather than paying for the
    # read.  Content-Encoding is the core's to undo (repro.api.core.decode).
    try:
        length = parse_content_length(headers.get("content-length")) or 0
        if length:
            check_body_length(length, max_bytes=max_body_bytes)
    except PayloadError as error:
        raise HttpProtocolError(error.status, str(error)) from None
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "request body truncated") from None
    return Request(method=method, target=target, version=version, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Mapping[str, str] | None = None,
) -> bytes:
    """Serialise a fixed-length HTTP/1.1 response to wire bytes."""
    reason = REASON_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ChunkedJsonWriter:
    """Streams NDJSON lines as HTTP/1.1 chunks — one chunk per JSON line.

    ``Transfer-Encoding: chunked`` framing keeps the connection reusable
    after a stream whose length is unknown up front, which is exactly the
    ``/batch`` situation: results leave in order of *completion*, so the
    response is open until the slowest query finishes.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        keep_alive: bool = True,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self._writer = writer
        self._status = status
        self._content_type = content_type
        self._keep_alive = keep_alive
        self._headers = dict(headers or {})

    async def start(self) -> None:
        reason = REASON_PHRASES.get(self._status, "Unknown")
        lines = [
            f"HTTP/1.1 {self._status} {reason}",
            f"Content-Type: {self._content_type}",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if self._keep_alive else 'close'}",
            *(f"{name}: {value}" for name, value in self._headers.items()),
        ]
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()

    async def send(self, payload: Any) -> None:
        line = json.dumps(payload, default=str).encode() + b"\n"
        self._writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
