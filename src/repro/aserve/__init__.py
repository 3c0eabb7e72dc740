"""The HTTP door: admission control, backpressure, streaming.

Every HTTP request a backend answers — ``repro serve`` in each of its roles,
the cluster's shard nodes, the tests and the benchmarks — crosses this one
door, stdlib ``asyncio`` only:

* :mod:`~repro.aserve.protocol` — a minimal HTTP/1.1 parser/renderer with
  keep-alive and chunked NDJSON streaming;
* :mod:`~repro.aserve.admission` — the bounded admission queue: at most
  ``max_inflight`` concurrent executions plus ``queue_depth`` waiting
  reservations, O(1) synchronous decisions, excess load answered ``429 +
  Retry-After`` from live :meth:`HypeRService.serving_signals` backpressure;
* :mod:`~repro.aserve.app` — the transport over the endpoint table of
  :mod:`repro.api.endpoints`: it runs each row on its lane, hands admitted
  work to an executor thread pool and streams per-query batch results as
  they complete;
* :mod:`~repro.aserve.runner` — lifecycle: warm-up (``start_pool`` /
  ``prepare``), SIGTERM/SIGINT drain (stop accepting, finish in-flight,
  release the shard pool), and the ``repro serve`` entry point.

See ``docs/service.md`` ("Serving & overload") for the contract.
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
