"""The HTTP door: a transport over the request core.

:class:`AsyncApp` owns one connection loop (`handle_connection`, passed to
``asyncio.start_server``) and, per request, only the decisions that are
genuinely the transport's — *where* a handler runs and *when* its bytes are
written.  What is answered — routing, validation, envelopes and
``X-Request-Id`` — comes from the endpoint table and the sans-IO core in
:mod:`repro.api.endpoints` (the catalogue of endpoints lives there).

Each table row names a **lane**, which this door maps to an executor:

* ``loop`` — answered inline on the event loop (``/v1/health``);
* ``control`` — the single auxiliary thread.  Stats and scrapes must stay
  responsive exactly when the query executor is saturated (that is when an
  operator needs them), and a commit must land on a saturated server — MVCC
  means it never pauses running queries, which keep their pinned snapshots —
  so these bypass admission; one thread also serialises HTTP commits with
  stats snapshots;
* ``blocking`` — the executor pool, not admission-controlled: the job
  manager's lock is held by executor workers across fsynced journal appends,
  and a slow fsync must stall a pool thread, never the loop.  Per-client
  quotas are the jobs throttle, and the executor's running leases feed
  ``serving_signals()`` so interactive admission sees background pressure;
* ``admitted`` — engine work behind admission control.  At capacity the
  answer is ``429`` with a ``Retry-After`` header, decided synchronously on
  the loop *before* the body is decoded (an overloaded server must not pay a
  JSON parse per rejected request); admitted work crosses to the executor
  pool in **one** hop, and its admission unit is released only after the
  response bytes are written — "finish in-flight" at drain time includes
  delivering the answer.

Besides the lanes, the door adds: ``503 {"status": "draining"}`` health once
shutdown has begun, an ``"aserve"`` section (admission numbers) in the stats
answer, and chunked NDJSON streaming of the table's two streaming rows, which
name no handler — ``/v1/batch`` reserves one admission unit per query (whole
batch or nothing) and streams lines in order of *completion*, so one slow
how-to does not head-of-line-block the other answers; job events are polled
by cursor, so an open stream costs the loop a timer, not a thread.
"""

from __future__ import annotations

import asyncio
import functools
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import suppress
from typing import Any

from ..api import endpoints as api
from ..api.schemas import ErrorEnvelope
from ..jobs import api as jobs_api
from ..obs import trace as obs_trace
from ..service.backend import ServiceBackend
from .admission import AdmissionController, AdmissionRejected
from .protocol import (
    ChunkedJsonWriter,
    HttpProtocolError,
    Request,
    read_request,
    render_response,
)

__all__ = ["AsyncApp"]


def _rate_limited(rejected: AdmissionRejected) -> api.ApiError:
    """The 429 answer: envelope, machine-readable retry hint, ``Retry-After``."""
    return api.ApiError(
        429,
        ErrorEnvelope("rate_limited", str(rejected)),
        extra={"retry_after": rejected.retry_after},
        headers={"Retry-After": str(max(1, math.ceil(rejected.retry_after)))},
    )


class AsyncApp:
    """Moves requests between sockets and the request core, lane by lane.

    ``executor`` is the thread pool blocking engine calls run on (sized to
    ``max_inflight`` by the runner, so the admission semaphore — not the
    pool — is the true concurrency bound).  Setting :attr:`draining` flips
    ``/health`` to 503 and stamps ``Connection: close`` on every response so
    keep-alive clients migrate away while in-flight work finishes.
    """

    #: the rows this door mounts; a subclass may extend the table
    routes = api.V1_ROUTES

    def __init__(
        self,
        service: ServiceBackend,
        admission: AdmissionController,
        *,
        max_body_bytes: int = api.MAX_BODY_BYTES,
        executor: Executor | None = None,
        keep_alive_timeout: float = 75.0,
        gzip_min_bytes: int = api.GZIP_MIN_BYTES,
    ) -> None:
        self.service = service
        self.admission = admission
        self.max_body_bytes = max_body_bytes
        self.keep_alive_timeout = keep_alive_timeout
        self.gzip_min_bytes = gzip_min_bytes
        self.draining = False
        self._executor = executor
        # the control lane: service.stats() can block briefly on the engine
        # lock during update_database, so it gets its own single thread
        # instead of the loop or the query pool
        self._aux_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="aserve-aux"
        )
        # connection tracking for the drain: open sockets, and the subset
        # currently inside a request handler (mid-response, must not be cut)
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy: set[asyncio.StreamWriter] = set()

    def close(self) -> None:
        """Release the app's own resources (the runner calls this at drain)."""
        self._aux_executor.shutdown(wait=False, cancel_futures=True)

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def abort_idle_connections(self) -> None:
        """Close keep-alive connections that are between requests.

        Busy connections finish their in-flight response first (draining
        responses carry ``Connection: close``, so they end themselves); the
        lifecycle runner sweeps until none remain.
        """
        for writer in list(self._connections - self._busy):
            writer.close()

    def abort_all_connections(self) -> None:
        for writer in list(self._connections):
            writer.close()

    # -- connection loop ---------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                # one timer bounds the wait for (and the reading of) a request:
                # it closes the socket, so the read below sees an EOF
                idle = loop.call_later(self.keep_alive_timeout, writer.close)
                try:
                    try:
                        request = await read_request(
                            reader, max_body_bytes=self.max_body_bytes
                        )
                    finally:
                        idle.cancel()
                except HttpProtocolError as error:
                    if writer.is_closing():
                        break  # a half-sent request stalled: nobody to answer
                    keep = not error.close
                    response = api.error_response(
                        self.service, None, api.PayloadError(error.status, str(error))
                    )
                    if await self._write(writer, response, None, keep):
                        continue
                    break
                if request is None:
                    break  # the client left, or sat idle past the timer: silent
                keep_alive = request.keep_alive and not self.draining
                self._busy.add(writer)
                try:
                    if not await self._dispatch(request, writer, keep_alive):
                        break
                finally:
                    self._busy.discard(writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; admission units are released in finallys
        finally:
            self._connections.discard(writer)
            self._busy.discard(writer)
            writer.close()
            with suppress(ConnectionError, asyncio.TimeoutError):
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        call = api.ApiRequest(
            request.method,
            request.target,
            request.headers,
            writer.get_extra_info("peername"),
            lambda _length: request.body,
        )
        matched = self.routes.match(call.method, call.path)
        if matched is None:
            return await self._fail(writer, call, api.not_found(call.path), keep_alive)
        endpoint, params = matched
        if endpoint.lane == "admitted":
            serve = self._stream_batch if endpoint.streaming else self._admitted
            return await serve(call, endpoint, params, writer, keep_alive)
        if endpoint.streaming:
            return await self._stream_events(call, params, writer, keep_alive)
        respond = functools.partial(
            api.answer,
            self.service,
            call,
            endpoint,
            params,
            max_body_bytes=self.max_body_bytes,
        )
        if endpoint.lane == "loop":
            response = respond()
        else:
            executor = self._aux_executor if endpoint.lane == "control" else self._executor
            response = await asyncio.get_running_loop().run_in_executor(executor, respond)
        if response.status == 200 and endpoint.name == "health" and self.draining:
            # the envelope fields ride along so v1 clients can dispatch on
            # code="unavailable"; "status" stays for legacy health checks
            response.status = 503
            response.payload = {
                **ErrorEnvelope("unavailable", "service is draining").to_json(),
                "status": "draining",
            }
        elif response.status == 200 and endpoint.name == "stats":
            response.payload["aserve"] = {
                "draining": self.draining,
                "admission": self.admission.stats(),
            }
        return await self._write(writer, response, call, keep_alive)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: api.ApiResponse,
        call: api.ApiRequest | None,
        keep_alive: bool,
    ) -> bool:
        body, headers = response.wire(
            call.headers.get("accept-encoding") if call is not None else None,
            gzip_min_bytes=self.gzip_min_bytes,
        )
        writer.write(
            render_response(
                response.status,
                body,
                content_type=response.content_type,
                keep_alive=keep_alive,
                extra_headers=headers,
            )
        )
        await writer.drain()
        return keep_alive

    async def _fail(
        self,
        writer: asyncio.StreamWriter,
        call: api.ApiRequest,
        error: BaseException,
        keep_alive: bool,
    ) -> bool:
        return await self._write(
            writer, api.error_response(self.service, call, error), call, keep_alive
        )

    async def _run_blocking(self, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    # -- the admitted lane -------------------------------------------------------------

    async def _admitted(
        self,
        call: api.ApiRequest,
        endpoint: api.Endpoint,
        params: api.Params,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        # a request on this lane is always one admission unit, so the
        # overload answer needs no look at the body: admit first, decode
        # only if admitted
        try:
            self.admission.try_admit(1, endpoint=endpoint.name)
        except AdmissionRejected as rejected:
            return await self._fail(writer, call, _rate_limited(rejected), keep_alive)
        api.note_admitted(self.service, call)
        try:
            # starts the deadline clock — before the admission queue wait:
            # time spent queued is time the client is already paying for
            api.decode(call, endpoint, max_body_bytes=self.max_body_bytes)
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            self.admission.cancel_reservation(1)
            return await self._fail(writer, call, error, keep_alive)
        # queue wait is the async door's own contribution to latency;
        # record it as a span before the unit enters execution
        with obs_trace.activate(call.trace), obs_trace.span("admission.queue"):
            await self.admission.acquire_slot()
        try:
            response = await self._run_blocking(
                api.run, self.service, call, endpoint, params
            )
            return await self._write(writer, response, call, keep_alive)
        finally:
            self.admission.release_slot()

    async def _stream_batch(
        self,
        call: api.ApiRequest,
        endpoint: api.Endpoint,
        params: api.Params,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Stream a batch as chunked NDJSON, one admission unit per query.

        Each line is ``{"index": i, "result": {...}}`` or ``{"index": i,
        "error": ..., "code": ...}``, closed by ``{"done": true,
        "n_queries": k}``.
        """
        try:
            api.decode(call, endpoint, max_body_bytes=self.max_body_bytes)
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            return await self._fail(writer, call, error, keep_alive)
        deadline = call.deadline
        texts = list(call.body.queries)
        if not texts:
            empty = api.reply(call, 200, {"results": [], "n_queries": 0})
            return await self._write(writer, empty, call, keep_alive)
        if len(texts) > self.admission.capacity:
            # no amount of retrying can fit this batch: a 429 would lie, so
            # answer 413 and tell the client to split
            too_large = api.PayloadError(
                413,
                f"batch of {len(texts)} queries exceeds this server's "
                f"total admission capacity of {self.admission.capacity} "
                "(max_inflight + queue_depth); split the batch",
            )
            return await self._fail(writer, call, too_large, keep_alive)
        try:
            # one unit per query: the whole batch is admitted or none of it
            self.admission.try_admit(len(texts), endpoint=endpoint.name)
        except AdmissionRejected as rejected:
            return await self._fail(writer, call, _rate_limited(rejected), keep_alive)
        api.note_admitted(self.service, call)

        stream = ChunkedJsonWriter(
            writer, keep_alive=keep_alive, headers={"X-Request-Id": call.request_id}
        )
        send_lock = asyncio.Lock()
        dead = False  # flipped when the client vanishes mid-stream

        async def run_one(index: int, text: str) -> None:
            nonlocal dead
            # Each unit owns its whole slot lifecycle (acquire → execute →
            # send → release): no unit ever waits on another unit's send, so
            # a client disconnect can neither deadlock the handler nor leak
            # capacity.  The slot is released only after the line is written
            # (or the connection is known dead), so a drain never cuts off
            # an undelivered result.  A cancelled acquire returns its own
            # reservation and never reaches the try block.
            await self.admission.acquire_slot()
            try:
                try:
                    # the deadline is checked per item right before
                    # execution: queries still queued when the budget ran out
                    # answer deadline_exceeded, not doomed results
                    result = await self._run_blocking(
                        api.execute_one, self.service, text, deadline=deadline
                    )
                    line: dict[str, Any] = api.batch_line(index, result)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - captured per query
                    line = api.batch_line(index, error)
                async with send_lock:
                    if not dead:
                        try:
                            await stream.send(line)
                        except (ConnectionError, asyncio.TimeoutError):
                            dead = True
            finally:
                self.admission.release_slot()

        try:
            await stream.start()
        except (ConnectionError, asyncio.TimeoutError):
            self.admission.cancel_reservation(len(texts))
            return False
        # lines leave in order of *completion*: fast queries stream out while
        # slow ones are still executing
        await asyncio.gather(
            *(run_one(index, text) for index, text in enumerate(texts))
        )
        if dead:
            return False
        try:
            await stream.send(api.batch_done_line(len(texts)))
            await stream.finish()
        except (ConnectionError, asyncio.TimeoutError):
            return False
        return keep_alive

    # -- job events --------------------------------------------------------------------

    async def _stream_events(
        self,
        call: api.ApiRequest,
        params: api.Params,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Stream a job's events as chunked NDJSON (the ``/batch`` framing).

        The loop polls the manager's in-memory event log — no executor
        thread is parked on a blocking wait, so a thousand open streams cost
        the loop a timer each, not a thread each.
        """
        job_id = params["id"]
        poll = functools.partial(
            self._run_blocking,
            jobs_api.poll_events,
            self.service,
            job_id,
            client_id=call.client_id,
        )
        cursor = 0
        try:
            events, terminal = await poll(cursor)
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            return await self._fail(writer, call, error, keep_alive)
        stream = ChunkedJsonWriter(
            writer, keep_alive=keep_alive, headers={"X-Request-Id": call.request_id}
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + api.stream_timeout_s(call.query_string)
        try:
            await stream.start()
            while True:
                for event in events:
                    await stream.send(event)
                cursor += len(events)
                if terminal or loop.time() >= deadline:
                    break
                await asyncio.sleep(0.15)
                try:
                    events, terminal = await poll(cursor)
                except api.ApiError:
                    break  # the job aged out mid-stream: finish cleanly
            await stream.send(
                await self._run_blocking(
                    jobs_api.events_done_line, self.service, job_id
                )
            )
            await stream.finish()
        except (ConnectionError, asyncio.TimeoutError):
            return False
        return keep_alive
