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

This module is the **blocking transport** only: one ``http.client``
connection, the attempt loop that sends and sleeps, and a ``readline`` loop
for streamed answers.  What the client *does* — the verbs and their inputs,
bounded retries honoring ``Retry-After``, whole-call deadlines, response
decoding, the error classes — is :mod:`repro.api.calls`, shared with the
asyncio transport (:mod:`repro.api.aclient`).
"""

from __future__ import annotations

import http.client
import time
from typing import TYPE_CHECKING, Any, Iterator, Sequence

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
    ServerDeadlineExceeded,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
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
#: and ``TimeoutError`` are ``OSError``s; ``IncompleteRead`` an ``HTTPException``)
_IO_ERRORS = (http.client.HTTPException, OSError)


class HypeRClient(ClientVerbs):
    """Client for a HypeR service's ``/v1`` HTTP API (threaded or async front door).

    The endpoints and constructor parameters are :class:`ClientVerbs`'s.
    Not thread-safe: one client wraps one keep-alive connection.  Create one
    client per thread (they are cheap — the socket opens lazily).
    """

    _conn: http.client.HTTPConnection | None = None

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HypeRClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the blocking transport --------------------------------------------------------

    def _connection(self, deadline: Deadline) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._conn.timeout = deadline.io_timeout(self.timeout)
        if self._conn.sock is not None:
            self._conn.sock.settimeout(self._conn.timeout)
        return self._conn

    def _run(self, call: Call, decoder: LineDecoder | None = None) -> Any:
        """The attempt loop: send, ask the core what the outcome means, sleep.

        Returns the decoded answer — for a streamed call (``decoder``) an
        iterator of its items, which owns the connection until exhausted.
        """
        pending = self._begin(call, decoder)
        while True:
            pending.deadline.check()
            try:
                conn = self._connection(pending.deadline)
                conn.request(
                    call.method, call.path, body=pending.body, headers=pending.headers
                )
                response = conn.getresponse()
            except _IO_ERRORS as error:
                self.close()
                time.sleep(pending.backoff(error))
                continue
            if pending.streams(response.status, response.getheader("Content-Type")):
                return self._lines(response, pending)
            try:
                raw = response.read()
            except _IO_ERRORS as error:
                self.close()
                raise pending.truncated(error) from error
            if response.will_close:
                self.close()
            encoding = response.getheader("Content-Encoding")
            wait = pending.overloaded(
                response.status, raw, encoding, response.getheader("Retry-After")
            )
            if wait is None:
                return pending.decode(response.status, raw, encoding)
            time.sleep(wait)

    #: a streamed call is the same loop; only what it returns differs
    _stream = _run

    def _lines(
        self, response: http.client.HTTPResponse, pending: PendingCall
    ) -> Iterator[Any]:
        decoder, clean = pending.decoder, False
        try:
            while not decoder.done:
                pending.deadline.check()
                line = response.readline()
                if not line:
                    decoder.end()
                    break
                item = decoder.feed(line)
                if item is not None:
                    yield item
            # read through the chunked terminator so the keep-alive
            # connection is clean for the next request
            response.read()
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
