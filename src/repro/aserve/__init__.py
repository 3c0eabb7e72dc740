"""The asyncio serving front-end: admission control, backpressure, streaming.

Where :mod:`repro.service.server` answers each request on its own thread with
no queueing and no overload story, this package is the production front door
the ROADMAP calls for — stdlib ``asyncio`` only:

* :mod:`~repro.aserve.protocol` — a minimal HTTP/1.1 parser/renderer with
  keep-alive and chunked NDJSON streaming;
* :mod:`~repro.aserve.admission` — the bounded admission queue: at most
  ``max_inflight`` concurrent executions plus ``queue_depth`` waiting
  reservations, O(1) synchronous decisions, excess load answered ``429 +
  Retry-After`` from live :meth:`HypeRService.serving_signals` backpressure;
* :mod:`~repro.aserve.app` — the endpoint router (``/health``, ``/stats``,
  ``/query``, ``/batch``) that hands admitted work to an executor thread
  pool and streams per-query batch results as they complete;
* :mod:`~repro.aserve.runner` — lifecycle: warm-up (``start_pool`` /
  ``prepare``), SIGTERM/SIGINT drain (stop accepting, finish in-flight,
  release the shard pool), and the ``repro serve --async`` entry point.

See ``docs/service.md`` ("Async serving & overload") for the contract.
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
