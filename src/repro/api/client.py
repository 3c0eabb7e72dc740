"""``HypeRClient`` — the stdlib Python SDK for the v1 HTTP API.

One keep-alive connection per client, typed answers, and production-shaped
failure handling::

    from repro.api import HypeRClient, what_if, set_, avg

    with HypeRClient("127.0.0.1", 8000) as client:
        answer = client.query(
            what_if().use("Credit").update(set_("CreditAmount", 1000)).output(avg("Risk"))
        )
        print(answer.value)
        for item in client.batch(["USE Credit UPDATE(Status) = 4 "
                                  "OUTPUT AVG(POST(Credit))"]):
            print(item.index, item.result.value if item.ok else item.error.message)

This module is the **blocking transport** only: one keep-alive socket and the
attempt loop that sends (one ``sendall`` per attempt), receives and sleeps.
What the client *does* — the verbs and their inputs, the request's bytes and
the framing of the answer's, bounded retries honoring ``Retry-After``,
whole-call deadlines, response decoding, the error classes — is
:mod:`repro.api.calls`, shared with the asyncio transport
(:mod:`repro.api.aclient`).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Iterator, Sequence

from .calls import (
    ApiStatusError,
    Call,
    ClientVerbs,
    Deadline,
    DeadlineExceeded,
    HypeRClientError,
    LineDecoder,
    OverloadedError,
    PendingCall,
    Response,
    ServerDeadlineExceeded,
    TransportError,
)

from .schemas import BatchItem, JobStatus

__all__ = [
    "HypeRClient",
    "HypeRClientError",
    "TransportError",
    "DeadlineExceeded",
    "ServerDeadlineExceeded",
    "ApiStatusError",
    "OverloadedError",
]

#: what a dead, stalled or half-closed connection raises (``ConnectionError``
#: and ``TimeoutError`` are ``OSError``s; ``EOFError`` is a body cut short)
_IO_ERRORS = (OSError, EOFError)


class HypeRClient(ClientVerbs):
    """Client for a HypeR service's ``/v1`` HTTP API.

    The endpoints and constructor parameters are :class:`ClientVerbs`'s.
    Not thread-safe: one client wraps one keep-alive connection.  Create one
    client per thread (they are cheap — the socket opens lazily).
    """

    _sock: socket.socket | None = None

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "HypeRClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the blocking transport --------------------------------------------------------

    def _connected(self, deadline: Deadline) -> socket.socket:
        timeout = deadline.io_timeout(self.timeout)
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(timeout)
        return self._sock

    def _run(self, call: Call, decoder: LineDecoder | None = None) -> Any:
        """The attempt loop: send, ask the core what the outcome means, sleep.

        Returns the decoded answer — for a streamed call (``decoder``) an
        iterator of its items, which owns the connection until exhausted.
        """
        pending = self._begin(call, decoder)
        while True:
            pending.deadline.check()
            response = Response()
            try:
                sock = self._connected(pending.deadline)
                sock.sendall(pending.request)
                while response.status is None:
                    response.feed(sock.recv(1 << 16))
            except _IO_ERRORS as error:
                self.close()
                time.sleep(pending.backoff(error))
                continue
            if pending.streams(response.status, response.headers.get("content-type")):
                return self._lines(sock, response, pending)
            try:
                while not response.done:
                    response.feed(sock.recv(1 << 16))
            except _IO_ERRORS as error:
                self.close()
                raise pending.truncated(error) from error
            if response.will_close:
                self.close()
            raw, encoding = b"".join(response.pieces), response.headers.get("content-encoding")
            hint = response.headers.get("retry-after")
            wait = pending.overloaded(response.status, raw, encoding, hint)
            if wait is None:
                return pending.decode(response.status, raw, encoding)
            time.sleep(wait)

    #: a streamed call is the same loop; only what it returns differs
    _stream = _run

    def _lines(
        self, sock: socket.socket, response: Response, pending: PendingCall
    ) -> Iterator[Any]:
        decoder, clean = pending.decoder, False
        try:
            # read through the end of the framing (the chunk terminator) even
            # after the done line: only then is the connection reusable
            while True:
                for piece in response.take():
                    yield from decoder.take(piece)
                if response.done:
                    break
                if not decoder.done:
                    pending.deadline.check()
                response.feed(sock.recv(1 << 16))
            yield from decoder.finish()
            clean = not response.will_close
        except _IO_ERRORS as error:
            raise pending.truncated(error) from error
        finally:
            # a failed, malformed or abandoned stream leaves unread bytes behind
            if not clean:
                self.close()

    # -- verbs that loop ---------------------------------------------------------------

    def batch_collect(
        self,
        queries: Sequence[Any],
        *,
        deadline: float | None = None,
    ) -> list[BatchItem]:
        """All batch outcomes, ordered by query index."""
        items = list(self.batch(queries, deadline=deadline))
        return sorted(items, key=lambda item: item.index)

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_seconds: float = 0.25,
    ) -> JobStatus:
        """Block until the job reaches a terminal state; returns its status.

        Polls the job's status (each poll under the remaining budget);
        raises :class:`DeadlineExceeded` if ``timeout`` elapses first.
        """
        budget = Deadline(timeout)
        while True:
            status = self.job(job_id, deadline=budget.remaining())
            if status.terminal:
                return status
            budget.request_id = self.last_request_id
            budget.check()
            time.sleep(budget.pace(min(poll_seconds, budget.io_timeout(self.timeout))))
