"""The sans-IO call core both SDK clients drive.

:class:`~repro.api.client.HypeRClient` (one blocking socket) and
:class:`~repro.api.aclient.AsyncHypeRClient` (pooled asyncio streams) only
move bytes; what is sent and what an answer means is decided once, here:

* the error taxonomy (:class:`HypeRClientError` …) and the call :class:`Deadline`;
* a :class:`Call` (method, path, payload, accepted statuses, answer parser)
  and :func:`encode`, run once per logical call — retries resend its bytes;
* the HTTP/1.1 framing: :func:`render_request` (a whole request as one byte
  string, for one write) and :class:`Response` (fed the bytes as they arrive:
  the head parsed from its one ``\\r\\n\\r\\n``-terminated block, then the body
  by its framing — ``Content-Length``, chunks, or until the close — so any
  HTTP/1.x server reads, not only the door);
* :class:`PendingCall`, one call in flight: the retry decision (transport
  failure | 429 | answer × attempts spent → seconds to sleep, or the error
  that ends the call; never a sleep past the deadline) and :meth:`decode
  <PendingCall.decode>` (gzip → JSON object → status → typed error);
* the two NDJSON line decoders, :class:`BatchLines` and :class:`EventLines`;
* the verbs, written once in :class:`ClientVerbs`: each builds a :class:`Call`
  and returns ``self._run(call)`` or ``self._stream(call, decoder)`` — the
  answer on the blocking transport, an awaitable of it on the asyncio one.

This module opens nothing and never sleeps (it reads the monotonic clock and
returns numbers).  Adding an endpoint is one row in
:data:`repro.api.endpoints.V1_ENDPOINTS`, one handler, and one verb here;
``tests/api/test_calls.py`` fails on a row without a verb.
"""

from __future__ import annotations

import gzip as gzip_module
import json
import time
import zlib
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..exceptions import HypeRError
from ..obs.trace import new_request_id
from .core import GZIP_MIN_BYTES, keeps_alive
from .schemas import (
    Answer,
    BatchItem,
    BatchRequest,
    ErrorEnvelope,
    JobListAnswer,
    JobStatus,
    JobSubmitRequest,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
    answer_from_json,
)

__all__ = [
    "HypeRClientError",
    "TransportError",
    "DeadlineExceeded",
    "ApiStatusError",
    "ServerDeadlineExceeded",
    "OverloadedError",
    "Deadline",
    "Call",
    "encode",
    "render_request",
    "Response",
    "PendingCall",
    "LineDecoder",
    "BatchLines",
    "EventLines",
    "ClientVerbs",
]


# -- the error taxonomy ----------------------------------------------------------------


class HypeRClientError(HypeRError):
    """Base class of every client-side failure.

    ``request_id`` is the ``X-Request-Id`` the failed call carried, so a
    client-side error names the exact server-side trace/log entries to pull.
    """

    def __init__(self, message: str, *, request_id: str = "") -> None:
        super().__init__(f"{message} [request {request_id}]" if request_id else message)
        self.request_id = request_id


class TransportError(HypeRClientError):
    """The connection failed past the retry budget, or the server's bytes
    (body, gzip, NDJSON line, stream framing) could not be decoded."""


class DeadlineExceeded(HypeRClientError):
    """The request deadline expired before an answer arrived."""


class ApiStatusError(HypeRClientError):
    """The server answered with an error status; carries the parsed envelope."""

    def __init__(
        self,
        status: int,
        envelope: ErrorEnvelope,
        body: dict[str, Any],
        *,
        request_id: str = "",
    ):
        super().__init__(f"HTTP {status}: {envelope.message}", request_id=request_id)
        self.status = status
        self.envelope = envelope
        self.body = body

    @property
    def code(self) -> str:
        return self.envelope.code


class ServerDeadlineExceeded(ApiStatusError, DeadlineExceeded):
    """504 ``deadline_exceeded``: the request's ``deadline_ms`` ran out server-side.

    Subclasses both :class:`ApiStatusError` (it carries a parsed envelope) and
    :class:`DeadlineExceeded` (a ``except DeadlineExceeded`` catches budget
    exhaustion wherever the clock ran out — client or server).
    """


class OverloadedError(ApiStatusError):
    """429 after the retry budget; ``retry_after`` is the server's last hint."""

    @property
    def retry_after(self) -> float:
        return float(self.body.get("retry_after") or 1.0)


def error_from_response(
    status: int, body: dict[str, Any], *, request_id: str = ""
) -> ApiStatusError:
    """The typed error of a non-accepted status and its (envelope) body."""
    try:
        envelope = ErrorEnvelope.from_json(body)
    except HypeRError:
        envelope = ErrorEnvelope("error", f"HTTP {status}: {body!r}")
    if status == 429:
        return OverloadedError(status, envelope, body, request_id=request_id)
    if envelope.code == "deadline_exceeded":
        return ServerDeadlineExceeded(status, envelope, body, request_id=request_id)
    return ApiStatusError(status, envelope, body, request_id=request_id)


class Deadline:
    """Wall-clock budget for one logical call (request + retries + sleeps)."""

    __slots__ = ("expires_at", "request_id")

    def __init__(self, seconds: float | None, request_id: str = "") -> None:
        self.expires_at = None if seconds is None else time.monotonic() + seconds
        self.request_id = request_id

    def remaining(self) -> float | None:
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def check(self) -> None:
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                "request deadline expired", request_id=self.request_id
            )

    def io_timeout(self, seconds: float) -> float:
        """The timeout of one I/O operation: ``seconds``, capped by what is left."""
        remaining = self.remaining()
        return seconds if remaining is None else max(min(seconds, remaining), 1e-3)

    def pace(self, seconds: float) -> float:
        """``seconds``, if the budget allows sleeping that long (else raises)."""
        remaining = self.remaining()
        if remaining is not None and seconds >= remaining:
            raise DeadlineExceeded(
                f"request deadline expires in {remaining:.3f}s, "
                f"cannot wait {seconds:.3f}s to retry",
                request_id=self.request_id,
            )
        return seconds


# -- one call: what is sent, how its answer is read ------------------------------------


def _same(body: dict[str, Any]) -> dict[str, Any]:
    return body


@dataclass(frozen=True)
class Call:
    """One request a verb wants made, and how to read its answer.

    ``deadline`` is the whole call's wall-clock budget in seconds; ``parse``
    turns the answer's JSON object into the verb's return value; ``accept``
    lists the statuses that are an answer (anything else raises the typed
    error of its envelope); ``text`` marks the one endpoint whose answer is
    not JSON (``/v1/metrics``) and is returned as decoded text.
    """

    method: str
    path: str
    payload: dict[str, Any] | None = None
    deadline: float | None = None
    parse: Callable[[dict[str, Any]], Any] = _same
    accept: tuple[int, ...] = (200,)
    text: bool = False


def encode(
    payload: dict[str, Any] | None,
    client_id: str,
    gzip_min_bytes: int | None,
    request_id: str,
) -> tuple[bytes | None, dict[str, str]]:
    """A call's body bytes and headers (``Content-Length`` is the transport's)."""
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Accept-Encoding": "gzip"}
    if client_id:
        headers["X-Client-Id"] = client_id
    if body is not None:
        headers["Content-Type"] = "application/json"
        if gzip_min_bytes is not None and len(body) >= gzip_min_bytes:
            # mtime=0 keeps compression deterministic (same body, same bytes)
            body = gzip_module.compress(body, compresslevel=6, mtime=0)
            headers["Content-Encoding"] = "gzip"
    # retries reuse the id: they are the same logical request
    headers["X-Request-Id"] = request_id
    return body, headers


# -- HTTP/1.1 framing ------------------------------------------------------------------


def render_request(
    method: str, path: str, host: str, headers: dict[str, str], body: bytes
) -> bytes:
    """A whole request — line, headers, ``Content-Length``, body — for one write."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class Response:
    """One response, read from the bytes a transport feeds it (:meth:`feed`).

    ``status`` / ``headers`` (names lower-cased) / ``will_close`` are set once
    the head's blank line has arrived; the body's bytes queue on ``pieces`` as
    its framing — chunks, ``Content-Length``, or everything until the server
    closes — releases them, and ``done`` turns true at the framing's end.
    """

    status: int | None = None
    done = False
    _chunked = _trailers = False
    #: body bytes still to come — of the chunk and its CRLF, or of the whole
    #: ``Content-Length`` body; ``None`` for a close-delimited one
    _left: int | None = 0

    def __init__(self) -> None:
        self.headers: dict[str, str] = {}
        self.pieces: list[bytes] = []
        self._buffer = b""

    def take(self) -> list[bytes]:
        """The queued pieces, removed from the queue."""
        pieces, self.pieces = self.pieces, []
        return pieces

    def feed(self, data: bytes) -> None:
        """The next bytes off the socket; ``b""`` when the server closed it.

        A head that cannot be one raises ``ConnectionError`` (nothing of an
        answer is consumed yet: retryable), a close mid-body ``EOFError``.
        """
        self._buffer += data
        if self.status is None:
            head, found, rest = self._buffer.partition(b"\r\n\r\n")
            if found:
                self._buffer = rest
                self._head(head.decode("latin-1").split("\r\n"))
            elif data:
                return
            else:
                what = "truncated the head" if head else "closed the connection"
                raise ConnectionError(f"server {what}")
        if self.done:
            return
        if not data:
            if self._left is not None:
                raise EOFError("server closed the connection mid-body")
            self.done = True
        elif self._chunked:
            self._chunks()
        elif self._left is None:
            self.pieces.append(self._buffer)
            self._buffer = b""
        else:
            piece, self._buffer = self._buffer[: self._left], self._buffer[self._left :]
            self.pieces.append(piece)
            self._left -= len(piece)
            self.done = not self._left

    def _head(self, lines: list[str]) -> None:
        version, status, *_ = (*lines[0].split(None, 2), "", "")
        if not version.startswith("HTTP/") or not status.isdigit():
            raise ConnectionError(f"malformed status line {lines[0]!r}")
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                self.headers[name.strip().lower()] = value.strip()
        self.will_close = not keeps_alive(version, self.headers.get("connection", ""))
        self._chunked = self.headers.get("transfer-encoding", "").lower() == "chunked"
        length = self.headers.get("content-length")
        if length is None and not self._chunked:
            self._left, self.will_close = None, True  # the close ends the body
        elif not self._chunked:
            if not length.isdigit():
                raise ConnectionError(f"invalid Content-Length {length!r}")
            self._left = int(length)
            self.done = not self._left
        self.status = int(status)

    def _chunks(self) -> None:
        while not self.done:
            if self._left:  # inside a chunk: released whole, once its CRLF is here
                if len(self._buffer) < self._left:
                    return
                self.pieces.append(self._buffer[: self._left - 2])
                self._buffer, self._left = self._buffer[self._left :], 0
            line, found, rest = self._buffer.partition(b"\n")
            if not found:
                return
            self._buffer = rest
            if self._trailers:  # read through the blank line that ends them
                self.done = not line.strip()
                continue
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                raise ConnectionError(f"bad chunk size {line!r}") from None
            self._left, self._trailers = size and size + 2, not size


class PendingCall:
    """One logical call in flight: encoded once, one request id and one
    :class:`Deadline` shared by every attempt, ``attempt`` retries spent.

    The transport's attempt loop sends ``request`` (the rendered bytes) and
    asks what the outcome means: a transport failure → :meth:`backoff`; a
    head that :meth:`streams` → feed ``decoder`` its body; a whole body →
    :meth:`overloaded` (a 429 with budget left), else :meth:`decode`.
    ``client`` supplies the address and the retry, gzip and client-id settings.
    """

    def __init__(
        self, call: Call, client: "ClientVerbs", decoder: LineDecoder | None = None
    ) -> None:
        self.call = call
        self.decoder = decoder
        self.request_id = new_request_id()
        if decoder is not None:
            decoder.error = self.error  # stream errors carry this call's id
        self.deadline = Deadline(call.deadline, self.request_id)
        body, self.headers = encode(
            call.payload, client.client_id, client.gzip_min_bytes, self.request_id
        )
        self.request = render_request(
            call.method, call.path, f"{client.host}:{client.port}", self.headers, body or b""
        )
        self.attempt = 0
        self.max_retries = client.max_retries
        self.backoff_seconds = client.backoff_seconds

    def error(self, message: str) -> TransportError:
        return TransportError(message, request_id=self.request_id)

    # -- the retry decision ------------------------------------------------------------

    def backoff(self, error: BaseException) -> float:
        """A connect/send/head failure: seconds to wait before reconnecting.

        Exponential in the attempts spent.  Raises :class:`TransportError`
        once the retry budget is gone, :class:`DeadlineExceeded` when the
        wait would outlive the deadline.  Resending is safe: every endpoint
        is read-only or (``update``) an idempotent whole-column overwrite;
        ``submit_job`` documents its own caveat.
        """
        if self.attempt >= self.max_retries:
            raise self.error(
                f"{self.call.method} {self.call.path} failed after "
                f"{self.attempt + 1} attempt(s): {type(error).__name__}: {error}"
            ) from error
        seconds = self.deadline.pace(self.backoff_seconds * (2**self.attempt))
        self.attempt += 1
        return seconds

    def overloaded(
        self, status: int, raw: bytes, encoding: str | None, header: str | None
    ) -> float | None:
        """A 429 the retry budget still covers: seconds the server asked the
        client to wait.  ``None`` for every other answer (:meth:`decode` it).

        The body's ``retry_after`` is the server's precise float hint; the
        ``Retry-After`` header is ceiled to whole seconds, so it only serves
        as the fallback.  Raises :class:`DeadlineExceeded` instead of
        answering with a wait the deadline cannot cover.
        """
        if status != 429 or self.attempt >= self.max_retries:
            return None
        hint = self._json_object(raw, encoding).get("retry_after")
        if hint is None:
            hint = float(header) if header else 1.0
        seconds = self.deadline.pace(max(float(hint), 0.0))
        self.attempt += 1
        return seconds

    def truncated(self, error: BaseException) -> TransportError:
        """The error of a body or stream that failed mid-read.  Never retried:
        the server already answered, only the bytes were lost."""
        return self.error(
            f"{self.call.method} {self.call.path} response truncated: "
            f"{type(error).__name__}: {error}"
        )

    # -- reading the answer ------------------------------------------------------------

    def streams(self, status: int, content_type: str | None) -> bool:
        """Is this head the start of the NDJSON stream ``decoder`` reads?"""
        return (
            self.decoder is not None
            and status in self.call.accept
            and "ndjson" in (content_type or "").lower()
        )

    def _gunzip(self, raw: bytes, encoding: str | None) -> bytes:
        """Undo a negotiated ``Content-Encoding: gzip``."""
        if raw and (encoding or "").strip().lower() == "gzip":
            try:
                return gzip_module.decompress(raw)
            except (OSError, EOFError, zlib.error) as error:
                raise self.error(
                    f"server sent a malformed gzip body: {error}"
                ) from None
        return raw

    def _json_object(self, raw: bytes, encoding: str | None) -> dict[str, Any]:
        raw = self._gunzip(raw, encoding)
        try:
            data = json.loads(raw) if raw else {}
        except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
            raise self.error(f"server sent a non-JSON body: {error}") from None
        if not isinstance(data, dict):
            raise self.error(f"server sent a non-object body: {data!r}")
        return data

    def decode(self, status: int, raw: bytes, encoding: str | None) -> Any:
        """A whole response → the verb's return value, or its typed error.

        A streamed call answered with one JSON body (the door's answer to an
        empty batch) returns the decoder's iterator over that body's items.
        """
        if self.call.text and status in self.call.accept:
            return self._gunzip(raw, encoding).decode("utf-8")
        body = self._json_object(raw, encoding)
        if status not in self.call.accept:
            raise error_from_response(status, body, request_id=self.request_id)
        answer = self.call.parse(body)
        return answer if self.decoder is None else self.decoder.whole(answer)


# -- NDJSON line decoders --------------------------------------------------------------


class LineDecoder:
    """Feeds on a stream's lines; the rules both NDJSON answers share.

    Blank lines are skipped; a line that is not a JSON object is a
    :class:`TransportError`.  A transport hands :meth:`take` each piece of the
    body as it arrives, reads the framing through its end whether or not
    ``done`` turned true on the way, and then calls :meth:`finish`.
    """

    #: builds this stream's errors; its :class:`PendingCall` rebinds it to
    #: :meth:`PendingCall.error` so they carry the request id
    error: Callable[[str], TransportError] = TransportError
    done = False
    _partial = b""  # the bytes of a line whose end has not arrived yet

    def take(self, piece: bytes) -> Iterator[Any]:
        """A piece of the body → the items of the lines it completes."""
        *lines, self._partial = (self._partial + piece).split(b"\n")
        for line in lines:
            if not self.done and (item := self.feed(line)) is not None:
                yield item

    def finish(self) -> Iterator[Any]:
        """The body ended: its unterminated last line; no ``done`` yet → :meth:`end`."""
        yield from self.take(b"\n")
        if not self.done:
            self.end()

    def feed(self, line: bytes) -> Any | None:
        """One line → the item to yield, or ``None`` (blank / bookkeeping)."""
        if not line.strip():
            return None
        try:
            data = json.loads(line)
        except ValueError:
            data = None
        if not isinstance(data, dict):
            raise self.error(f"malformed NDJSON line {line[:80]!r}")
        return self.accept(data)

    def accept(self, data: dict[str, Any]) -> Any | None:
        raise NotImplementedError

    def end(self) -> None:
        """The stream's bytes ended before a ``done`` line."""

    def whole(self, body: dict[str, Any]) -> Iterator[Any]:
        """The items of an answer that arrived as one JSON body instead."""
        yield body


class BatchLines(LineDecoder):
    """``/v1/batch``: one :class:`BatchItem` per line, then ``{"done": true}``.

    The ``done`` line is bookkeeping (not yielded) and must follow exactly
    ``expected`` results; bytes ending before it is a truncated stream.
    """

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.seen = 0

    def accept(self, data: dict[str, Any]) -> BatchItem | None:
        if not data.get("done"):
            self.seen += 1
            return BatchItem.from_json(data)
        if self.seen != self.expected:
            raise self.error(
                f"batch stream closed after {self.seen}/{self.expected} results"
            )
        self.done = True
        return None

    def end(self) -> None:
        raise self.error(
            f"batch stream ended early: {self.seen}/{self.expected} results"
        )

    def whole(self, body: dict[str, Any]) -> Iterator[BatchItem]:
        """A batch answered as one JSON object, in index order."""
        results = body.get("results")
        if not isinstance(results, list):
            raise self.error(f"malformed batch response: {body!r}")
        for index, entry in enumerate(results):
            if isinstance(entry, dict) and "error" in entry:
                yield BatchItem(index=index, error=ErrorEnvelope.from_json(entry))
            else:
                yield BatchItem(index=index, result=answer_from_json(entry))


class EventLines(LineDecoder):
    """``/v1/jobs/{id}/events``: event dicts, the ``done`` one yielded last.

    A close-delimited stream may simply end.
    """

    def accept(self, data: dict[str, Any]) -> dict[str, Any]:
        self.done = bool(data.get("done"))
        return data


# -- the verbs -------------------------------------------------------------------------


def as_text(query: Any) -> str:
    """Query text of a text / query object / fluent builder input.

    Non-text inputs are rendered through :func:`repro.lang.unparse`, whose
    output fingerprints identically, so the server's caches treat them as
    the same plan.
    """
    if isinstance(query, str):
        return query
    from ..lang.unparse import unparse
    from .builder import as_query_object

    return unparse(as_query_object(query))


def server_deadline_ms(deadline: float | None, deadline_ms: int | None) -> int | None:
    """The ``deadline_ms`` a request carries: explicit, or the call budget."""
    if deadline_ms is not None:
        return deadline_ms
    if deadline is None:
        return None
    return max(1, int(deadline * 1000))


@dataclass(eq=False)
class ClientVerbs:
    """Every endpoint of the ``/v1`` API as a method, over an abstract transport.

    A transport subclass provides ``_run(call)`` — make the call, return its
    decoded answer — and ``_stream(call, decoder)`` — make the call, return
    an iterator of the decoder's items.  The annotations are the blocking
    client's; on :class:`~repro.api.aclient.AsyncHypeRClient` a plain verb
    returns an awaitable of the annotated type, a streaming verb an async
    iterator.

    Parameters
    ----------
    host / port:
        Server address (as printed by ``repro serve``).
    timeout:
        Per-attempt I/O timeout, seconds; ``deadline`` arguments cap whole calls.
    max_retries:
        Retry budget per call for 429s and transport failures; ``0`` disables
        retrying entirely.
    backoff_seconds:
        Base of the exponential reconnect backoff (doubles per attempt).
    trace:
        When true, every query/update asks the server for its span tree
        (``?trace=1``); the answer's ``trace`` field carries it back.

    Every call sends a fresh ``X-Request-Id`` (kept across that call's
    retries, available afterwards as :attr:`last_request_id`), and every
    client-side error names the id it failed under — one string correlates a
    client log line, the server's trace, and its slow-query log.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    _: KW_ONLY
    timeout: float = 60.0
    max_retries: int = 3
    backoff_seconds: float = 0.05
    trace: bool = False
    #: request bodies at or above this size are sent gzip-compressed;
    #: ``None`` disables request compression (responses are still
    #: negotiated via ``Accept-Encoding: gzip`` and decompressed)
    gzip_min_bytes: int | None = GZIP_MIN_BYTES
    #: sent as ``X-Client-Id`` on every request; the server uses it for
    #: per-client stats, job ownership, and quota accounting.  Empty means
    #: the server assigns a per-connection anonymous id.
    client_id: str = ""
    #: the X-Request-Id of the most recently started call
    last_request_id: str = field(default="", init=False)

    def _begin(self, call: Call, decoder: LineDecoder | None = None) -> PendingCall:
        """Mint the call's request id and budget; encode it once for all attempts."""
        pending = PendingCall(call, self, decoder)
        self.last_request_id = pending.request_id
        return pending

    # -- generic JSON endpoints (the cluster's internal protocol uses these) -----------

    def get_json(self, path: str, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET path`` returning the decoded JSON object (non-200 raises)."""
        return self._run(Call("GET", path, None, deadline))

    def post_json(
        self, path: str, payload: dict[str, Any], *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``POST path`` returning the decoded JSON object (non-200 raises)."""
        return self._run(Call("POST", path, payload, deadline))

    # -- typed endpoints ---------------------------------------------------------------

    def health(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/health``."""
        return self._run(Call("GET", "/v1/health", None, deadline))

    def stats(self, *, deadline: float | None = None) -> StatsSnapshot:
        """``GET /v1/stats`` as a typed :class:`StatsSnapshot`."""
        parse = StatsSnapshot.from_json
        return self._run(Call("GET", "/v1/stats", None, deadline, parse))

    def metrics(self, *, deadline: float | None = None) -> str:
        """``GET /v1/metrics``: the server's Prometheus text exposition."""
        return self._run(Call("GET", "/v1/metrics", None, deadline, text=True))

    def slow_queries(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/slow``: the server's slow-query log snapshot."""
        return self._run(Call("GET", "/v1/slow", None, deadline))

    def query(
        self,
        query: Any,
        *,
        exhaustive: bool = False,
        deadline: float | None = None,
        deadline_ms: int | None = None,
        trace: bool | None = None,
    ) -> Answer:
        """Answer one query (text, query object, or builder) as a typed answer.

        ``trace`` overrides the client default; a builder that asked for
        ``.trace()`` turns it on for this call as well.  Traced answers carry
        the server's span tree in their ``trace`` field.  The request carries
        ``deadline_ms`` (explicit, or derived from ``deadline``) so the server
        answers 504 ``deadline_exceeded`` — raised here as
        :class:`ServerDeadlineExceeded` — instead of computing a doomed answer.
        """
        wants_trace = self.trace if trace is None else trace
        wants_trace = wants_trace or bool(getattr(query, "wants_trace", False))
        request = QueryRequest(
            query=as_text(query),
            exhaustive=exhaustive,
            deadline_ms=server_deadline_ms(deadline, deadline_ms),
        )
        path = "/v1/query?trace=1" if wants_trace else "/v1/query"
        call = Call("POST", path, request.to_json(), deadline, answer_from_json)
        return self._run(call)

    def update(
        self,
        assignments: dict[str, dict[str, Sequence[float]]],
        *,
        deadline: float | None = None,
        trace: bool | None = None,
    ) -> UpdateAnswer:
        """``POST /v1/update``: commit whole-column overwrites as one generation.

        ``assignments`` maps relation → attribute → the full new column (one
        value per row).  The server commits everything named here atomically
        under MVCC — queries racing the commit answer entirely from the old
        or entirely from the new snapshot.  Idempotent (an overwrite replayed
        by a transport retry commits the same values), so the usual retry
        policy applies.
        """
        request = UpdateRequest(
            assignments={
                relation: {
                    attr: tuple(float(v) for v in values)
                    for attr, values in columns.items()
                }
                for relation, columns in assignments.items()
            }
        )
        wants_trace = self.trace if trace is None else trace
        path = "/v1/update?trace=1" if wants_trace else "/v1/update"
        return self._run(
            Call("POST", path, request.to_json(), deadline, UpdateAnswer.from_json)
        )

    def batch(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
        deadline_ms: int | None = None,
    ) -> Iterator[BatchItem]:
        """Stream a batch's per-query outcomes as they complete.

        Yields the NDJSON lines live, in completion order.  The iterator owns
        the connection until exhausted — drain it before issuing the next
        call.
        """
        request = BatchRequest(
            queries=tuple(as_text(q) for q in queries),
            deadline_ms=server_deadline_ms(deadline, deadline_ms),
        )
        call = Call("POST", "/v1/batch", request.to_json(), deadline)
        return self._stream(call, BatchLines(len(request.queries)))

    # -- prepare / jobs ----------------------------------------------------------------

    def prepare(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
    ) -> PrepareAnswer:
        """``POST /v1/prepare``: warm server-side plans/views for these queries.

        Preparation is a hint — it never changes answers, only moves plan and
        view construction off the first query's latency.  Safe to retry.
        """
        payload = PrepareRequest(queries=tuple(as_text(q) for q in queries)).to_json()
        return self._run(
            Call("POST", "/v1/prepare", payload, deadline, PrepareAnswer.from_json)
        )

    def submit_job(
        self,
        query: Any = None,
        *,
        queries: Sequence[Any] | None = None,
        priority: str = "normal",
        run_at_generation: int | None = None,
        exhaustive: bool = False,
        deadline: float | None = None,
    ) -> JobStatus:
        """``POST /v1/jobs``: enqueue one query (or a batch) as a durable job.

        Exactly one of ``query``/``queries`` must be given.  Submission is
        journaled before the 202 answer, so an accepted job survives a server
        crash.  Note that a *transport* retry of a submit may enqueue the job
        twice (submission is not idempotent); poll :meth:`jobs` to reconcile.
        """
        request = JobSubmitRequest(
            query=as_text(query) if query is not None else None,
            queries=(
                tuple(as_text(q) for q in queries) if queries is not None else None
            ),
            priority=priority,
            run_at_generation=run_at_generation,
            exhaustive=exhaustive,
        )
        return self._run(
            Call(
                "POST", "/v1/jobs", request.to_json(), deadline, JobStatus.from_json,
                accept=(200, 202),
            )
        )

    def job(self, job_id: str, *, deadline: float | None = None) -> JobStatus:
        """``GET /v1/jobs/{id}``: the job's current status."""
        path = f"/v1/jobs/{job_id}"
        return self._run(Call("GET", path, None, deadline, JobStatus.from_json))

    def jobs(self, *, deadline: float | None = None) -> JobListAnswer:
        """``GET /v1/jobs``: this client's jobs (per ``client_id``), oldest first."""
        parse = JobListAnswer.from_json
        return self._run(Call("GET", "/v1/jobs", None, deadline, parse))

    def job_result(
        self, job_id: str, *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``GET /v1/jobs/{id}/result``: the finished job's result document.

        404 ``not_found`` while the job is still in flight, 404
        ``result_expired`` once a succeeded job's result has aged out of the
        retention store (the terminal *status* survives either way).
        """
        return self._run(Call("GET", f"/v1/jobs/{job_id}/result", None, deadline))

    def cancel_job(self, job_id: str, *, deadline: float | None = None) -> JobStatus:
        """``POST /v1/jobs/{id}/cancel``: request cancellation (idempotent)."""
        path = f"/v1/jobs/{job_id}/cancel"
        return self._run(Call("POST", path, {}, deadline, JobStatus.from_json))

    def job_events(
        self,
        job_id: str,
        *,
        timeout_s: float | None = None,
        deadline: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/{id}/events``: stream the job's NDJSON event lines.

        Yields each event dict as the server emits it and ends after the
        server's ``{"done": true, ...}`` line (yielded last).  ``timeout_s``
        caps how long the *server* keeps the stream open waiting for the job
        to finish.  The iterator owns the connection until exhausted.
        """
        path = f"/v1/jobs/{job_id}/events"
        if timeout_s is not None:
            path += f"?timeout_s={float(timeout_s):g}"
        return self._stream(Call("GET", path, None, deadline), EventLines())
