"""The sans-IO request core the HTTP door drives.

The door (:mod:`repro.aserve`) parses bytes into an :class:`ApiRequest`,
hands it to the stages here, and writes out the :class:`ApiResponse` they
return.  Everything that decides *what* is answered is defined once in this
module: request ids and client ids (:class:`ApiRequest`), the body guards
(:func:`check_body_length` → :func:`decompress_body` →
:func:`decode_json_object`), ``?trace=1`` and the deadline clock
(:func:`decode`), the one failure → envelope mapping (:func:`envelope_for`,
:func:`error_response`) with its rejection accounting, and JSON/gzip
encoding (:meth:`ApiResponse.wire`).  The HTTP/1.0–1.1 keep-alive rule
(:func:`keeps_alive`) lives here too, so the door's request reader and the
clients' response reader apply the same one.  This module knows nothing
about sockets, and nothing about which endpoints exist — the table of rows
lives in :mod:`repro.api.endpoints`, which re-exports every name here.
"""

from __future__ import annotations

import gzip as gzip_module
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from ..obs import trace as obs_trace
from ..service.backend import ServiceBackend
from .schemas import ErrorEnvelope, WireFormatError

__all__ = [
    "MAX_BODY_BYTES",
    "GZIP_MIN_BYTES",
    "LANES",
    "PayloadError",
    "ApiError",
    "code_for_status",
    "envelope_for",
    "not_found",
    "deadline_error",
    "parse_content_length",
    "check_body_length",
    "decode_json_object",
    "decompress_body",
    "accepts_gzip",
    "keeps_alive",
    "wants_trace",
    "stream_timeout_s",
    "RequestDeadline",
    "ApiRequest",
    "ApiResponse",
    "Params",
    "Handler",
    "Endpoint",
    "reply",
    "error_response",
    "note_admitted",
    "validate",
    "decode",
    "run",
    "answer",
]

#: default request-body ceiling of the door
MAX_BODY_BYTES = 4 * 1024 * 1024

#: default size threshold (bytes) below which responses are never gzipped —
#: compressing tiny payloads costs more than it saves on the wire
GZIP_MIN_BYTES = 2048


# -- the one exception → envelope mapping ----------------------------------------------


class PayloadError(ValueError):
    """A request body rejected before execution; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ApiError(HypeRError):
    """An error with a fully-determined HTTP answer (status + envelope).

    ``extra`` decorates the envelope body with top-level fields (the 429's
    machine-readable ``retry_after``) and ``headers`` rides on the response
    (``Retry-After``).
    """

    def __init__(
        self,
        status: int,
        envelope: ErrorEnvelope,
        *,
        extra: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(envelope.message)
        self.status = status
        self.envelope = envelope
        self.extra = dict(extra or {})
        self.headers = dict(headers or {})

    def body(self) -> dict[str, Any]:
        return {**self.envelope.to_json(), **self.extra}


_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    408: "bad_request",
    411: "bad_request",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    501: "not_implemented",
    503: "unavailable",
    504: "deadline_exceeded",
    505: "bad_request",
}


def code_for_status(status: int) -> str:
    """The stable envelope code of a bare HTTP status (protocol-level errors)."""
    return _STATUS_CODES.get(status, "error")


def envelope_for(error: BaseException) -> tuple[int, ErrorEnvelope]:
    """Map any failure to its HTTP status and :class:`ErrorEnvelope`.

    This is the single classification of the door, the cluster's internal
    rows and the job executor, so the same bad input gets the identical
    envelope wherever it fails.
    """
    if isinstance(error, ApiError):
        return error.status, error.envelope
    if isinstance(error, PayloadError):
        return error.status, ErrorEnvelope(code_for_status(error.status), str(error))
    if isinstance(error, QuerySyntaxError):
        detail: dict[str, Any] = {}
        if error.position is not None:
            detail["position"] = error.position
        if error.line is not None:
            detail["line"] = error.line
        return 400, ErrorEnvelope("query_syntax", str(error), detail or None)
    if isinstance(error, QuerySemanticsError):
        return 400, ErrorEnvelope("query_semantics", str(error))
    if isinstance(error, (HypeRError, ValueError)):
        return 400, ErrorEnvelope("bad_request", str(error))
    return 500, ErrorEnvelope("internal", f"{type(error).__name__}: {error}")


def not_found(path: str) -> ApiError:
    return ApiError(404, ErrorEnvelope("not_found", f"unknown path {path!r}"))


def deadline_error(deadline_ms: int) -> ApiError:
    """The 504 answered instead of computing once a request's budget ran out."""
    return ApiError(
        504,
        ErrorEnvelope(
            "deadline_exceeded",
            f"deadline of {deadline_ms} ms expired before execution",
            {"deadline_ms": deadline_ms},
        ),
    )


# -- body guards (shared 413/400 policy) -----------------------------------------------


def parse_content_length(raw: str | None) -> int | None:
    """A ``Content-Length`` header value as a byte count (None when absent)."""
    if raw is None:
        return None
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        raise PayloadError(400, f"invalid Content-Length {raw!r}")
    return length


def check_body_length(length: int | None, *, max_bytes: int = MAX_BODY_BYTES) -> int:
    """Validate a declared Content-Length: 400 when absent, 413 when too big."""
    if length is None or length <= 0:
        raise PayloadError(400, "request body missing (Content-Length required)")
    if length > max_bytes:
        raise PayloadError(
            413, f"request body of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return length


def decode_json_object(raw: bytes) -> dict[str, Any]:
    """Decode a request body into a JSON object; malformed input is 400."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise PayloadError(400, f"malformed JSON body: {error}") from None
    if not isinstance(data, dict):
        raise PayloadError(400, "request body must be a JSON object")
    return data


def decompress_body(
    raw: bytes, content_encoding: str | None, *, max_bytes: int = MAX_BODY_BYTES
) -> bytes:
    """Undo a request body's ``Content-Encoding``.

    Only ``gzip`` (and the no-op ``identity``) are supported; anything else is
    400.  The *decompressed* size is held to the same ceiling as a plain body,
    so a tiny gzip bomb cannot smuggle past the 413 guard.
    """
    encoding = (content_encoding or "").strip().lower()
    if encoding in ("", "identity"):
        return raw
    if encoding != "gzip":
        raise PayloadError(400, f"unsupported Content-Encoding {content_encoding!r}")
    try:
        body = gzip_module.decompress(raw)
    except (OSError, EOFError) as error:
        raise PayloadError(400, f"malformed gzip body: {error}") from None
    if len(body) > max_bytes:
        raise PayloadError(
            413,
            f"decompressed body of {len(body)} bytes exceeds the {max_bytes}-byte limit",
        )
    return body


def accepts_gzip(accept_encoding: str | None) -> bool:
    """True when an ``Accept-Encoding`` header value admits gzip responses."""
    if not accept_encoding:
        return False
    for part in accept_encoding.split(","):
        token, _, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "*"):
            continue
        quality = 1.0
        for param in params.split(";"):
            key, _, value = param.replace(" ", "").partition("=")
            if key.lower() == "q":
                try:
                    quality = float(value)
                except ValueError:
                    pass
        return quality > 0.0
    return False


def keeps_alive(version: str, connection: str) -> bool:
    """Whether a message leaves its connection open, by its HTTP version and
    ``Connection`` header value: HTTP/1.1 unless it says ``close``, HTTP/1.0
    only when it says ``keep-alive``."""
    connection = connection.lower()
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return "close" not in connection


# -- query-string options --------------------------------------------------------------


def wants_trace(query_string: str) -> bool:
    """True when a request's query string opts into tracing (``trace=1``)."""
    for part in query_string.split("&"):
        if part in ("trace=1", "trace=true"):
            return True
    return False


def stream_timeout_s(query_string: str) -> float:
    """How long an event stream may stay open without news (``?timeout_s=``).

    Defaults to 30 s, clamped to [0, 300]; an unparsable value is ignored.
    """
    timeout = 30.0
    for part in query_string.split("&"):
        key, _, value = part.partition("=")
        if key == "timeout_s":
            try:
                timeout = min(300.0, max(0.0, float(value)))
            except ValueError:
                pass
    return timeout


class RequestDeadline:
    """Server-side remaining-budget tracker of one request's ``deadline_ms``.

    Anchored to the monotonic clock when the request body is decoded, so time
    spent waiting in the admission queue counts against the budget.  A
    relaying backend (the cluster coordinator) forwards
    :meth:`remaining_ms` downstream — the budget decrements across hops.
    """

    def __init__(self, deadline_ms: int) -> None:
        self.deadline_ms = int(deadline_ms)
        self._expires = time.monotonic() + self.deadline_ms / 1000.0

    @classmethod
    def of(cls, body: Any) -> "RequestDeadline | None":
        """The deadline of a decoded request body, or None when unbudgeted.

        Typed schemas validated their ``deadline_ms`` already; a raw JSON
        object (the shard-internal rows) is checked here.
        """
        if not isinstance(body, dict):
            deadline_ms = getattr(body, "deadline_ms", None)
            return cls(deadline_ms) if deadline_ms is not None else None
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            return None
        try:
            return cls(deadline_ms)
        except (TypeError, ValueError):
            raise PayloadError(400, f"invalid deadline_ms {deadline_ms!r}") from None

    def remaining_ms(self) -> float:
        return (self._expires - time.monotonic()) * 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires

    def check(self) -> None:
        """Raise the ``deadline_exceeded`` :class:`ApiError` once expired."""
        if self.expired:
            raise deadline_error(self.deadline_ms)


# -- the request and response the transports exchange with the core ---------------------


class ApiRequest:
    """One HTTP request as the core sees it; a transport builds it per request.

    ``headers`` is looked up by lower-case name (a case-insensitive mapping
    works too), ``peer`` is the connection's ``(host, port)`` and
    ``read_body(n)`` hands over the ``n`` body bytes the transport framed —
    the core calls it at most once, after the declared length passed the
    413/400 guard, so an oversized body is never read.  :func:`decode` fills
    in ``body`` (the validated request), ``trace`` and ``deadline``.
    """

    __slots__ = (
        "method",
        "path",
        "query_string",
        "headers",
        "peer",
        "read_body",
        "request_id",
        "body",
        "trace",
        "deadline",
    )

    def __init__(
        self,
        method: str,
        target: str,
        headers: Mapping[str, str],
        peer: Any,
        read_body: Callable[[int], bytes],
    ) -> None:
        self.method = method
        self.path, _, self.query_string = target.partition("?")
        self.headers = headers
        self.peer = peer
        self.read_body = read_body
        # adopt the client's X-Request-Id or mint one; every response echoes
        # it back so client logs and server traces correlate
        self.request_id: str = headers.get("x-request-id") or obs_trace.new_request_id()
        self.body: Any = None
        self.trace: obs_trace.TraceContext | None = None
        self.deadline: RequestDeadline | None = None

    @property
    def client_id(self) -> str:
        """The caller's id: ``X-Client-Id`` or a per-connection anonymous id.

        Scopes job quotas, job ownership and the per-client serving stats.
        """
        header = (self.headers.get("x-client-id") or "").strip()
        if header:
            return header[:128]
        if isinstance(self.peer, (tuple, list)) and len(self.peer) >= 2:
            return f"anon-{self.peer[0]}:{self.peer[1]}"
        return "anon"


@dataclass
class ApiResponse:
    """What the core answers: a status plus a JSON-able payload (a ``str``
    under any other ``content_type``)."""

    status: int
    payload: Any = None
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def wire(
        self, accept_encoding: str | None, *, gzip_min_bytes: int = GZIP_MIN_BYTES
    ) -> tuple[bytes, dict[str, str]]:
        """The body bytes and every header besides type/length/connection."""
        if self.content_type == "application/json":
            body = json.dumps(self.payload, default=str).encode()
        else:
            body = self.payload.encode("utf-8")
        # compress when it is worth the CPU and the peer accepts it — size
        # first: most answers are small, and then the header goes unparsed
        if len(body) >= gzip_min_bytes and accepts_gzip(accept_encoding):
            # mtime=0 keeps the output deterministic for byte-level tests
            body = gzip_module.compress(body, compresslevel=6, mtime=0)
            return body, {**self.headers, "Content-Encoding": "gzip"}
        return body, self.headers


# -- endpoint rows ---------------------------------------------------------------------

Params = Mapping[str, str]

Handler = Callable[["ServiceBackend", ApiRequest, Params], ApiResponse]

LANES = ("loop", "control", "blocking", "admitted")


@dataclass(frozen=True)
class Endpoint:
    """One row of the API: route, handler, lane and request schema.

    A path may contain ``{param}`` segments (``/v1/jobs/{id}``); routing
    (:meth:`repro.api.endpoints.RouteTable.match`) binds them to concrete
    path segments and hands the bindings to the handler as ``params``.  ``schema`` is the strict v1
    class a POST body must validate as (``None``: any JSON object).  A row
    without a handler is :attr:`streaming`.
    """

    name: str
    method: str
    path: str
    handler: Handler | None
    lane: str
    aliases: tuple[str, ...] = ()
    schema: Any = None

    def __post_init__(self) -> None:
        if self.lane not in LANES:
            raise ValueError(f"endpoint {self.name!r}: unknown lane {self.lane!r}")

    @property
    def paths(self) -> tuple[str, ...]:
        return (self.path, *self.aliases)

    @property
    def streaming(self) -> bool:
        """The row answers NDJSON lines the door streams itself — by
        completion on the ``admitted`` lane (every line is one admitted
        query), by cursor poll on the ``blocking`` lane (lines come from an
        event log) — so it names no handler."""
        return self.handler is None


# -- the request core ------------------------------------------------------------------


def reply(
    request: ApiRequest | None,
    status: int,
    payload: Any,
    headers: Mapping[str, str] | None = None,
) -> ApiResponse:
    """A JSON answer carrying the request's id (minted for an unparsed request)."""
    request_id = request.request_id if request is not None else obs_trace.new_request_id()
    return ApiResponse(
        status, payload, headers={**(headers or {}), "X-Request-Id": request_id}
    )


def error_response(
    backend: ServiceBackend, request: ApiRequest | None, error: BaseException
) -> ApiResponse:
    """Answer a failure with the shared envelope (status + code + message).

    ``request`` is None for a request the transport could not parse.  A 429
    — admission control or a job quota — is attributed to the client as a
    rejection.
    """
    status, envelope = envelope_for(error)
    if isinstance(error, ApiError):
        payload, headers = error.body(), error.headers
    else:
        payload, headers = envelope.to_json(), None
    if status == 429 and request is not None:
        backend.note_client_request(request.client_id, rejected=True)
    return reply(request, status, payload, headers)


def note_admitted(backend: ServiceBackend, request: ApiRequest) -> None:
    """Count an admitted request (``/v1/query``, ``/v1/batch``, a node's
    ``/v1/partial``) for its client; a 429 counts in :func:`error_response`."""
    backend.note_client_request(request.client_id)


def validate(schema: Any, body: dict[str, Any]) -> Any:
    """``body`` as the strict v1 ``schema``; violations are 400 ``bad_request``."""
    try:
        return schema.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


def decode(
    request: ApiRequest, endpoint: Endpoint, *, max_body_bytes: int = MAX_BODY_BYTES
) -> None:
    """Read and validate the request body; arm ``?trace=1`` and the deadline.

    A POST needs a JSON-object body: the declared length is checked *before*
    the body is read (413 oversized, 400 missing), then decompressed, decoded
    and validated against the row's schema.  The deadline clock starts here,
    so time spent queued for admission counts against the budget.
    """
    if endpoint.method == "POST":
        headers = request.headers
        length = check_body_length(
            parse_content_length(headers.get("content-length")), max_bytes=max_body_bytes
        )
        raw = decompress_body(
            request.read_body(length),
            headers.get("content-encoding"),
            max_bytes=max_body_bytes,
        )
        body: Any = decode_json_object(raw)
        if endpoint.schema is not None:
            body = validate(endpoint.schema, body)
        request.body = body
        request.deadline = RequestDeadline.of(body)
    if wants_trace(request.query_string):
        request.trace = obs_trace.TraceContext(request.request_id)


def run(
    backend: ServiceBackend,
    request: ApiRequest,
    endpoint: Endpoint,
    params: Params,
) -> ApiResponse:
    """Call a decoded request's handler; never raises.

    Query errors answer 400, unexpected engine failures 500, all with the
    shared envelope — a failure never drops the connection.
    """
    try:
        response = endpoint.handler(backend, request, params)
    except Exception as error:  # noqa: BLE001 - keep the JSON contract
        return error_response(backend, request, error)
    response.headers["X-Request-Id"] = request.request_id
    return response


def answer(
    backend: ServiceBackend,
    request: ApiRequest,
    endpoint: Endpoint,
    params: Params,
    *,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> ApiResponse:
    """:func:`decode` then :func:`run` a routed request; never raises."""
    try:
        decode(request, endpoint, max_body_bytes=max_body_bytes)
    except Exception as error:  # noqa: BLE001 - keep the JSON contract
        return error_response(backend, request, error)
    return run(backend, request, endpoint, params)
