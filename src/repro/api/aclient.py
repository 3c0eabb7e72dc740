"""``AsyncHypeRClient`` — the asyncio twin of :class:`~repro.api.client.HypeRClient`.

Same endpoints, same typed answers, and the same failure semantics as the
sync SDK — not by imitation: the verbs, request encoding, retry/deadline
decisions, response decoding and error classes are the one copy in
:mod:`repro.api.calls`.  This module is the **asyncio transport** only:
HTTP/1.1 framing over ``asyncio`` streams, so many calls can be in flight on
one event loop.  Every verb of :class:`~repro.api.calls.ClientVerbs` is
awaited here (``await client.query(...)``), every streaming verb iterated
with ``async for``.

Unlike the sync client (one keep-alive connection, not thread-safe), the
async client keeps a small **pool** of keep-alive connections: concurrent
coroutines each borrow an idle connection or open a fresh one, so a single
client per server is safe to share across tasks on one loop — exactly what
the cluster coordinator needs for concurrent scatters::

    client = AsyncHypeRClient("127.0.0.1", 8000)
    try:
        answer = await client.query("USE Credit UPDATE(Status) = 4 "
                                    "OUTPUT AVG(POST(Credit))")
        async for item in client.batch(texts):
            ...
    finally:
        await client.close()
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from collections.abc import AsyncIterator
from typing import TYPE_CHECKING, Any, Sequence

from .calls import Call, ClientVerbs, Deadline, LineDecoder, PendingCall

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .schemas import BatchItem, JobStatus

__all__ = ["AsyncHypeRClient"]

#: what a dead, stalled or half-closed connection raises — the async analogue
#: of the sync client's ``(HTTPException, OSError)``; ``ConnectionError`` and
#: ``TimeoutError`` are ``OSError``s, ``IncompleteReadError`` an ``EOFError``
_IO_ERRORS = (OSError, EOFError, asyncio.TimeoutError)

#: StreamReader line limit — headers and NDJSON lines must fit one line
_STREAM_LIMIT = 1 << 20


class _Conn:
    """One pooled keep-alive connection."""

    __slots__ = ("reader", "writer", "will_close")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: the last response head said the server closes after this answer
        self.will_close = False


@dataclass(eq=False, kw_only=True)
class AsyncHypeRClient(ClientVerbs):
    """Asyncio client for a HypeR service's ``/v1`` HTTP API.

    Constructor parameters are :class:`~repro.api.calls.ClientVerbs`'s
    (``timeout`` is the per-I/O-operation cap, ``deadline`` arguments cap
    whole calls).  ``max_idle_connections`` bounds the keep-alive pool;
    excess connections are closed on release rather than pooled.
    """

    max_idle_connections: int = 8

    def __post_init__(self) -> None:
        self._idle: list[_Conn] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------------

    async def close(self) -> None:
        """Close every pooled connection; in-flight borrows close on release."""
        self._closed = True
        while self._idle:
            self._discard(self._idle.pop())

    async def __aenter__(self) -> "AsyncHypeRClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- connection pool ---------------------------------------------------------------

    async def _acquire(self, deadline: Deadline) -> _Conn:
        while self._idle:
            conn = self._idle.pop()
            if not conn.writer.is_closing():
                return conn
            self._discard(conn)
        reader, writer = await self._bounded(
            asyncio.open_connection(self.host, self.port, limit=_STREAM_LIMIT),
            deadline,
        )
        return _Conn(reader, writer)

    def _discard(self, conn: _Conn) -> None:
        try:
            conn.writer.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass

    def _finish(self, conn: _Conn) -> None:
        """Return a fully-read connection to the pool, or close it per the response."""
        if (
            conn.will_close
            or self._closed
            or conn.writer.is_closing()
            or len(self._idle) >= self.max_idle_connections
        ):
            self._discard(conn)
        else:
            self._idle.append(conn)

    async def _bounded(self, awaitable: Any, deadline: Deadline) -> Any:
        """Run one I/O operation under the per-operation/deadline cap."""
        timeout = deadline.io_timeout(self.timeout)
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"no response within {timeout:.3f}s") from None

    # -- HTTP/1.1 framing --------------------------------------------------------------

    def _render_request(self, pending: PendingCall) -> bytes:
        body = pending.body or b""
        lines = [
            f"{pending.call.method} {pending.call.path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        for name, value in pending.headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    async def _read_head(
        self, conn: _Conn, deadline: Deadline
    ) -> tuple[int, dict[str, str]]:
        """Parse the status line and headers; notes whether the server will close."""
        try:
            head = await self._bounded(conn.reader.readuntil(b"\r\n\r\n"), deadline)
        except asyncio.IncompleteReadError as error:
            what = "truncated the head" if error.partial else "closed the connection"
            raise ConnectionError(f"server {what}") from None
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, *_ = (*status_line.split(None, 2), "", "")
        if not version.startswith("HTTP/") or not status.isdigit():
            raise ConnectionError(f"malformed status line {status_line!r}")
        headers: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            conn.will_close = "keep-alive" not in connection
        else:
            conn.will_close = "close" in connection
        return int(status), headers

    async def _iter_body(
        self, conn: _Conn, headers: dict[str, str], deadline: Deadline
    ) -> AsyncIterator[bytes]:
        """The body's bytes as they arrive, read through the end of its framing."""
        reader = conn.reader
        length = headers.get("content-length")
        if headers.get("transfer-encoding", "").lower() == "chunked":
            while True:
                size_line = await self._bounded(reader.readline(), deadline)
                try:  # an EOF's empty line is malformed too
                    size = int(size_line.split(b";", 1)[0], 16)
                except ValueError:
                    raise ConnectionError(f"bad chunk size {size_line!r}") from None
                if size == 0:
                    # trailer section: read through the blank terminator line
                    while True:
                        trailer = await self._bounded(reader.readline(), deadline)
                        if trailer in (b"\r\n", b"\n", b""):
                            return
                chunk = await self._bounded(reader.readexactly(size + 2), deadline)
                yield chunk[:-2]  # without its CRLF
        elif length is None:
            # close-delimited (the threaded front door's streams): until EOF
            while piece := await self._bounded(reader.read(1 << 16), deadline):
                yield piece
        elif not length.isdigit():
            raise ConnectionError(f"invalid Content-Length {length!r}")
        elif int(length):
            yield await self._bounded(reader.readexactly(int(length)), deadline)

    async def _iter_lines(
        self, conn: _Conn, headers: dict[str, str], deadline: Deadline
    ) -> AsyncIterator[bytes]:
        """A streamed body split into lines (whatever its framing)."""
        buffer = b""
        async for piece in self._iter_body(conn, headers, deadline):
            buffer += piece
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                yield line
        if buffer:
            yield buffer

    # -- the asyncio transport ---------------------------------------------------------

    async def _exchange(self, pending: PendingCall) -> Any:
        """The attempt loop: send, ask the core what the outcome means, sleep.

        Returns the decoded answer — for a streamed call an (async, or for a
        whole-body answer plain) iterator of its items.
        """
        deadline = pending.deadline
        while True:
            deadline.check()
            conn: _Conn | None = None
            try:
                conn = await self._acquire(deadline)
                conn.writer.write(self._render_request(pending))
                await self._bounded(conn.writer.drain(), deadline)
                status, headers = await self._read_head(conn, deadline)
            except _IO_ERRORS as error:
                if conn is not None:
                    self._discard(conn)
                await asyncio.sleep(pending.backoff(error))
                continue
            if pending.streams(status, headers.get("content-type")):
                return self._lines(conn, headers, pending)
            try:
                pieces = [p async for p in self._iter_body(conn, headers, deadline)]
            except _IO_ERRORS as error:
                self._discard(conn)
                raise pending.truncated(error) from error
            self._finish(conn)
            raw, encoding = b"".join(pieces), headers.get("content-encoding")
            hint = headers.get("retry-after")
            wait = pending.overloaded(status, raw, encoding, hint)
            if wait is None:
                return pending.decode(status, raw, encoding)
            await asyncio.sleep(wait)

    async def _run(self, call: Call) -> Any:
        return await self._exchange(self._begin(call))

    async def _stream(self, call: Call, decoder: LineDecoder) -> AsyncIterator[Any]:
        """Make the call on first iteration; the iterator owns its connection."""
        items = await self._exchange(self._begin(call, decoder))
        if isinstance(items, AsyncIterator):
            async for item in items:
                yield item
        else:
            for item in items:
                yield item

    async def _lines(
        self, conn: _Conn, headers: dict[str, str], pending: PendingCall
    ) -> AsyncIterator[Any]:
        decoder, clean = pending.decoder, False
        try:
            async for line in self._iter_lines(conn, headers, pending.deadline):
                if decoder.done:
                    # keep reading through the end of the framing (the chunk
                    # terminator): only then is the connection poolable
                    continue
                pending.deadline.check()
                item = decoder.feed(line)
                if item is not None:
                    yield item
            if not decoder.done:
                decoder.end()
            clean = True
        except _IO_ERRORS as error:
            raise pending.truncated(error) from error
        finally:
            # a failed, malformed or abandoned stream leaves unread bytes behind
            if clean:
                self._finish(conn)
            else:
                self._discard(conn)

    # -- verbs that loop ---------------------------------------------------------------

    async def batch_collect(
        self,
        queries: Sequence[Any],
        *,
        deadline: float | None = None,
    ) -> list[BatchItem]:
        """All batch outcomes, ordered by query index."""
        items = [item async for item in self.batch(queries, deadline=deadline)]
        return sorted(items, key=lambda item: item.index)

    async def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_seconds: float = 0.25,
    ) -> JobStatus:
        """Wait until the job reaches a terminal state; returns its status.

        Polls the job's status (each poll under the remaining budget);
        raises :class:`DeadlineExceeded` if ``timeout`` elapses first.
        """
        budget = Deadline(timeout)
        while True:
            status = await self.job(job_id, deadline=budget.remaining())
            if status.terminal:
                return status
            budget.request_id = self.last_request_id
            budget.check()
            await asyncio.sleep(
                budget.pace(min(poll_seconds, budget.io_timeout(self.timeout)))
            )
