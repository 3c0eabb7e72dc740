"""``AsyncHypeRClient`` — the asyncio twin of :class:`~repro.api.client.HypeRClient`.

Same endpoints, same typed answers, and the same failure semantics as the
sync SDK — not by imitation: the verbs, request encoding, HTTP/1.1 framing,
retry/deadline decisions, response decoding and error classes are the one
copy in :mod:`repro.api.calls`.  This module is the **asyncio transport**
only: pooled ``asyncio`` streams and the attempt loop over them, so many
calls can be in flight on one event loop.  Every verb of
:class:`~repro.api.calls.ClientVerbs` is awaited here (``await
client.query(...)``), every streaming verb iterated with ``async for``.

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

from .calls import Call, ClientVerbs, Deadline, LineDecoder, PendingCall, Response

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .schemas import BatchItem, JobStatus

__all__ = ["AsyncHypeRClient"]

#: what a dead, stalled or half-closed connection raises (``ConnectionError``
#: and ``TimeoutError`` are ``OSError``s, ``IncompleteReadError`` an ``EOFError``)
_IO_ERRORS = (OSError, EOFError)
# keep-alive connections one client pools; more are closed on release
_MAX_IDLE_CONNECTIONS = 8


def _timed_out(timeout: float) -> TimeoutError:
    return TimeoutError(f"no response within {timeout:.3f}s")


class _Conn:
    """One pooled keep-alive connection."""

    __slots__ = ("reader", "writer", "expired")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.expired = False

    def expire(self, timeout: float) -> None:
        """An operation outlived its cap: fail the pending read with the
        ``TimeoutError`` and kill the socket (which ends a pending ``drain``)."""
        self.expired = True
        self.reader.set_exception(_timed_out(timeout))
        self.writer.transport.abort()


@dataclass(eq=False, kw_only=True)
class AsyncHypeRClient(ClientVerbs):
    """Asyncio client for a HypeR service's ``/v1`` HTTP API.

    Constructor parameters are :class:`~repro.api.calls.ClientVerbs`'s
    (``timeout`` is the per-I/O-operation cap, ``deadline`` arguments cap
    whole calls).  The keep-alive pool holds at most
    :data:`_MAX_IDLE_CONNECTIONS` connections; excess connections are closed
    on release rather than pooled.
    """

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
        timeout = deadline.io_timeout(self.timeout)
        opening = asyncio.open_connection(self.host, self.port)
        try:
            return _Conn(*await asyncio.wait_for(opening, timeout))
        except asyncio.TimeoutError:
            raise _timed_out(timeout) from None

    def _discard(self, conn: _Conn) -> None:
        try:
            conn.writer.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass

    def _finish(self, conn: _Conn, response: Response) -> None:
        """Return a fully-read connection to the pool, or close it per the response."""
        if (
            response.will_close
            or self._closed
            or conn.writer.is_closing()
            or len(self._idle) >= _MAX_IDLE_CONNECTIONS
        ):
            self._discard(conn)
        else:
            self._idle.append(conn)

    async def _receive(self, conn: _Conn, response: Response, deadline: Deadline) -> None:
        """Feed ``response`` what arrives next, under the per-operation cap."""
        response.feed(await self._bounded(conn, conn.reader.read(1 << 16), deadline))

    async def _bounded(self, conn: _Conn, awaitable: Any, deadline: Deadline) -> Any:
        """Run one I/O operation on ``conn`` under the per-operation/deadline
        cap — a timer that kills the connection, not a Task per operation."""
        timeout = deadline.io_timeout(self.timeout)
        timer = asyncio.get_running_loop().call_later(timeout, conn.expire, timeout)
        try:
            return await awaitable
        except ConnectionError as error:
            # the timer's abort, not the peer, lost the connection: say so
            if not conn.expired:
                raise
            raise _timed_out(timeout) from error
        finally:
            timer.cancel()

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
            response = Response()
            try:
                conn = await self._acquire(deadline)
                conn.writer.write(pending.request)
                await self._bounded(conn, conn.writer.drain(), deadline)
                while response.status is None:
                    await self._receive(conn, response, deadline)
            except _IO_ERRORS as error:
                if conn is not None:
                    self._discard(conn)
                await asyncio.sleep(pending.backoff(error))
                continue
            if pending.streams(response.status, response.headers.get("content-type")):
                return self._lines(conn, response, pending)
            try:
                while not response.done:
                    await self._receive(conn, response, deadline)
            except _IO_ERRORS as error:
                self._discard(conn)
                raise pending.truncated(error) from error
            self._finish(conn, response)
            raw, encoding = b"".join(response.pieces), response.headers.get("content-encoding")
            hint = response.headers.get("retry-after")
            wait = pending.overloaded(response.status, raw, encoding, hint)
            if wait is None:
                return pending.decode(response.status, raw, encoding)
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
        self, conn: _Conn, response: Response, pending: PendingCall
    ) -> AsyncIterator[Any]:
        decoder, clean = pending.decoder, False
        try:
            # read through the end of the framing (the chunk terminator) even
            # after the done line: only then is the connection poolable
            while True:
                for piece in response.take():
                    for item in decoder.take(piece):
                        yield item
                if response.done:
                    break
                if not decoder.done:
                    pending.deadline.check()
                await self._receive(conn, response, pending.deadline)
            for item in decoder.finish():
                yield item
            clean = True
        except _IO_ERRORS as error:
            raise pending.truncated(error) from error
        finally:
            # a failed, malformed or abandoned stream leaves unread bytes behind
            if clean:
                self._finish(conn, response)
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
