"""The one HTTP door (``docs/service.md``, "Serving & overload"), stdlib
``asyncio`` only: every HTTP request a backend answers — ``repro serve`` in
each of its roles, the cluster's nodes, the tests and the benchmarks — is read
here, admitted or answered ``429 + Retry-After`` from live backpressure, run
on its endpoint row's lane, streamed when it answers NDJSON, and drained on
SIGTERM/SIGINT.
"""

from .admission import AdmissionController, AdmissionRejected
from .app import AsyncApp
from .protocol import (
    ChunkedJsonWriter,
    HttpProtocolError,
    Request,
    read_request,
    render_response,
)
from .runner import AsyncServingRunner, BackgroundAsyncServer, run_async_server

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AsyncApp",
    "AsyncServingRunner",
    "BackgroundAsyncServer",
    "ChunkedJsonWriter",
    "HttpProtocolError",
    "Request",
    "read_request",
    "render_response",
    "run_async_server",
]
