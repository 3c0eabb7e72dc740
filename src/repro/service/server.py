"""A minimal stdlib HTTP front-end for a serving backend.

No web framework — ``http.server.ThreadingHTTPServer`` dispatches each
request on its own thread to a shared, thread-safe backend.  This module is
a *transport adapter*: it builds an :class:`~repro.api.core.ApiRequest` from
what ``BaseHTTPRequestHandler`` parsed, hands it to the shared request core
(:func:`repro.api.endpoints.handle`) and writes out the
:class:`~repro.api.core.ApiResponse` it gets back.  Which endpoints exist,
how bodies are validated and how failures are enveloped is the endpoint
table's business (see :mod:`repro.api.endpoints` for the catalogue); the
asyncio front-end of :mod:`repro.aserve` drives the same core, so the two
doors cannot drift.  Every HTTP method goes through the core — an unrouted
one answers the JSON ``not_found`` envelope, never the stdlib's HTML 501.

The one thing this door adds is framing: responses are HTTP/1.0
close-delimited, and a streaming answer (job events) is written as NDJSON
lines flushed one by one until its source ends.

Start a server from Python with :func:`serve` or from the command line with
``repro serve --dataset german-syn``; :func:`serve` installs SIGTERM/SIGINT
handlers that stop the listener, finish in-flight requests, and release the
service's shard pool.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..api import endpoints as api
from .backend import ServiceBackend

__all__ = ["make_server", "serve"]


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Moves one request's bytes between the socket and the request core."""

    server_version = "HypeRService/1.0"
    #: silence per-request stderr logging unless the server enables it
    verbose = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.verbose:  # pragma: no cover - exercised only with verbose servers
            super().log_message(format, *args)

    def __getattr__(self, name: str) -> Any:
        # http.server looks up ``do_<METHOD>`` per request and answers an HTML
        # 501 when it is missing; every method is the core's to answer
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _serve(self) -> None:
        request = api.ApiRequest(
            self.command, self.path, self.headers, self.client_address, self.rfile.read
        )
        response = api.handle(self.server.hyper_service, request)  # type: ignore[attr-defined]
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        if response.lines is not None:
            self._stream(response)
            return
        body, headers = response.wire(self.headers.get("Accept-Encoding"))
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _stream(self, response: api.ApiResponse) -> None:
        """Write a streaming answer's NDJSON lines as they are produced.

        The response carries no ``Content-Length``; each line is flushed as
        it happens and the connection closes after the last one (HTTP/1.0
        close-delimited framing, matching how this door already answers
        everything else).
        """
        self.send_header("Connection", "close")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        try:
            for line in response.lines:
                self.wfile.write(json.dumps(line, default=str).encode("utf-8") + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # the client hung up mid-stream; nothing to answer
        self.close_connection = True


def make_server(
    service: ServiceBackend, host: str = "127.0.0.1", port: int = 8000
) -> ThreadingHTTPServer:
    """Build (without starting) a threading HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (useful for tests); read the actual
    address from ``server.server_address``.
    """
    class _Server(ThreadingHTTPServer):
        # socketserver's default listen backlog of 5 resets connections the
        # moment a few dozen clients arrive at once; without keep-alive every
        # request is a fresh connection, so the backlog must absorb bursts.
        request_queue_size = 128
        # Handler threads stay daemonic (a hung engine call must never block
        # process exit), but ``block_on_close`` keeps them registered so
        # ``server_close()`` joins them — ``serve()`` runs that join on a
        # helper thread with a timeout, giving a *bounded* drain.
        daemon_threads = True
        block_on_close = True

    server = _Server((host, port), _ServiceRequestHandler)
    server.hyper_service = service  # type: ignore[attr-defined]
    return server


def serve(
    service: ServiceBackend,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    shutdown_event: threading.Event | None = None,
    drain_timeout: float = 30.0,
) -> None:
    """Serve until SIGTERM/SIGINT (or ``shutdown_event``), then drain and close.

    Graceful shutdown: the signal stops the listener (no new connections),
    in-flight handler threads finish their responses (``server_close`` joins
    them, run on a helper thread bounded by ``drain_timeout`` so one hung
    request cannot block shutdown forever), and :meth:`HypeRService.close`
    releases the shard worker pool — workers are never left to be
    garbage-collected.  ``shutdown_event`` lets embedding code (tests)
    request the same drain without a signal; when ``serve`` is not on the
    main thread, signal handlers are skipped and the event is the only
    trigger.
    """
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"HypeR service listening on http://{bound_host}:{bound_port}", flush=True)
    print(
        "endpoints: "
        + ", ".join(f"{row.method} {row.path}" for row in api.V1_ENDPOINTS)
        + " (legacy aliases without the /v1 prefix)",
        flush=True,
    )
    stop = shutdown_event if shutdown_event is not None else threading.Event()
    previous: dict[int, Any] = {}

    def _request_stop(signum: int, frame: Any) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:  # pragma: no cover - not the main thread
            break
    listener = threading.Thread(
        target=server.serve_forever, name="hyper-http-listener", daemon=True
    )
    listener.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive fallback
        pass
    finally:
        print("draining: listener closed, finishing in-flight requests", flush=True)
        server.shutdown()
        # server_close joins in-flight handler threads; bound it so a hung
        # engine call cannot block shutdown (handlers are daemonic)
        closer = threading.Thread(
            target=server.server_close, name="hyper-http-drain", daemon=True
        )
        closer.start()
        closer.join(timeout=drain_timeout)
        if closer.is_alive():
            print(
                f"drain timeout after {drain_timeout}s; abandoning in-flight requests",
                flush=True,
            )
        listener.join(timeout=10)
        service.close_jobs()
        service.close()
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        print("shutdown complete", flush=True)
