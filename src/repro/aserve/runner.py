"""Lifecycle owner for the HTTP door.

:class:`AsyncServingRunner` ties the pieces together and owns the sequence
**warm → bind → serve → drain → close**:

1. **warm-up** — ``HypeRService.start_pool()`` first (so ``processes`` mode
   forks its shard workers from a still-single-threaded parent, before the
   executor spawns request threads), then ``prepare()`` for any operator
   supplied warm queries so the first real request hits hot caches;
2. **bind** — ``asyncio.start_server`` with :meth:`AsyncApp.handle_connection`;
   ``port=0`` binds an ephemeral port, read back from :attr:`address`;
3. **serve** — SIGTERM/SIGINT are hooked via ``loop.add_signal_handler`` and
   simply set the shutdown event; the loop keeps serving until then;
4. **drain** — stop accepting (close the listener), flip the app into
   ``draining`` (``/health`` answers 503, responses carry ``Connection:
   close``), wait up to ``drain_timeout`` for every admitted unit to finish
   (:meth:`AdmissionController.wait_idle`), then shut the executor down and
   release the shard pool with ``HypeRService.close()``.

``run_async_server`` is the blocking entry point behind ``repro serve`` (every
role); :class:`BackgroundAsyncServer` runs the same lifecycle on a dedicated
thread + event loop for embedding code, tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..api.core import MAX_BODY_BYTES
from ..service.backend import ServiceBackend
from .admission import AdmissionController
from .app import AsyncApp

__all__ = ["AsyncServingRunner", "BackgroundAsyncServer", "run_async_server"]


class AsyncServingRunner:
    """Builds and drives the door for one serving backend."""

    def __init__(
        self,
        service: ServiceBackend,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        max_inflight: int | None = None,
        queue_depth: int | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        drain_timeout: float = 30.0,
        keep_alive_timeout: float = 75.0,
        warm_queries: Sequence[str] = (),
        verbose: bool = False,
        app_factory: Callable[..., AsyncApp] = AsyncApp,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight or service.max_workers
        self.queue_depth = queue_depth if queue_depth is not None else 2 * self.max_inflight
        self.drain_timeout = drain_timeout
        self.warm_queries = list(warm_queries)
        self.verbose = verbose
        # the controller shares the backend's registry so /v1/metrics shows
        # both layers
        self.admission = AdmissionController(
            self.max_inflight,
            self.queue_depth,
            service=service,
            metrics_registry=service.metrics,
        )
        # Executor sized to max_inflight: admission (not the thread pool) is
        # the concurrency bound, so an admitted unit never queues twice.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="aserve"
        )
        # app_factory lets an embedding subsystem (the cluster shard server)
        # mount extra routes by substituting an AsyncApp subclass
        self.app = app_factory(
            service,
            self.admission,
            max_body_bytes=max_body_bytes,
            executor=self._executor,
            keep_alive_timeout=keep_alive_timeout,
        )
        self._server: asyncio.base_events.Server | None = None
        self._shutdown_requested: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Warm up and start accepting connections.

        A failure anywhere (a bad warm query, the port already in use)
        releases what was already built — the shard pool forked for warm-up
        and the executor — instead of leaking it to the host process.
        """
        try:
            # fork shard workers before any executor thread exists
            self.service.start_pool()
            if self.warm_queries:
                self.service.prepare(self.warm_queries)
            self._shutdown_requested = asyncio.Event()
            self._server = await asyncio.start_server(
                self.app.handle_connection, self.host, self.port
            )
        except BaseException:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.app.close()
            self.service.close_jobs()
            self.service.close()
            raise
        if self.verbose:
            host, port = self.address
            print(f"HypeR service listening on http://{host}:{port}", flush=True)
            print(
                "endpoints: "
                + ", ".join(f"{row.method} {row.path}" for row in self.app.routes.endpoints),
                flush=True,
            )
            print(
                f"admission: max_inflight={self.max_inflight} "
                f"queue_depth={self.queue_depth} (excess load -> 429)",
                flush=True,
            )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break  # non-Unix loop or nested loop: rely on request_shutdown

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (callable from signal handlers; loop thread)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_requested is not None, "call start() first"
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def run(self) -> None:
        """start → signals → serve → drain; the whole front-end lifetime."""
        await self.start()
        self.install_signal_handlers()
        await self.serve_until_shutdown()

    async def shutdown(self) -> None:
        """Drain: stop accepting, finish in-flight work, release the pool."""
        loop = asyncio.get_running_loop()
        self.app.draining = True
        if self._server is not None:
            self._server.close()  # listener gone; existing connections live on
        if self.verbose:
            print("draining: listener closed, finishing in-flight requests", flush=True)
        drained = await self.admission.wait_idle(timeout=self.drain_timeout)
        if not drained and self.verbose:  # pragma: no cover - timeout path
            print(
                f"drain timeout after {self.drain_timeout}s; "
                f"{self.admission.occupied} unit(s) abandoned",
                flush=True,
            )
        # Sweep lingering keep-alive connections: idle ones are dropped
        # outright, busy ones end themselves after their response (draining
        # responses carry ``Connection: close``); force-close any survivor.
        deadline = loop.time() + 5.0
        while self.app.open_connections and loop.time() < deadline:
            self.app.abort_idle_connections()
            await asyncio.sleep(0.05)
        self.app.abort_all_connections()
        if self._server is not None:
            # prompt now that no connection remains (3.12+ waits for them)
            await self._server.wait_closed()
        # cancel_futures so an abandoned (never-started) unit cannot run
        # against a service we are about to close
        self._executor.shutdown(wait=drained, cancel_futures=not drained)
        self.app.close()
        self.service.close_jobs()
        self.service.close()
        if self.verbose:
            print("shutdown complete", flush=True)


def run_async_server(
    service: ServiceBackend,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    max_inflight: int | None = None,
    queue_depth: int | None = None,
    drain_timeout: float = 30.0,
    warm_queries: Sequence[str] = (),
    app_factory: Callable[..., AsyncApp] = AsyncApp,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    runner = AsyncServingRunner(
        service,
        host,
        port,
        max_inflight=max_inflight,
        queue_depth=queue_depth,
        drain_timeout=drain_timeout,
        warm_queries=warm_queries,
        verbose=True,
        app_factory=app_factory,
    )
    try:
        asyncio.run(runner.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive fallback
        pass


class BackgroundAsyncServer:
    """The door on a dedicated thread + loop (embedding code, tests, benchmarks).

    Usage::

        with BackgroundAsyncServer(service, max_inflight=4) as server:
            host, port = server.address
            urllib.request.urlopen(f"http://{host}:{port}/health")

    ``signal_stop`` triggers the drain without blocking (the loop stays
    responsive while in-flight work finishes); ``stop`` (and ``__exit__``)
    additionally joins the server thread.
    """

    def __init__(self, service: ServiceBackend, **runner_kwargs) -> None:
        runner_kwargs.setdefault("port", 0)
        self.runner = AsyncServingRunner(service, **runner_kwargs)
        self._thread = threading.Thread(
            target=self._main, name="aserve-background", daemon=True
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> "BackgroundAsyncServer":
        self._thread.start()
        self._ready.wait(timeout=120)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise RuntimeError("async server failed to start within 120s")
        return self

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.runner.start()
            self.address = self.runner.address
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self.runner.serve_until_shutdown()

    def signal_stop(self) -> None:
        """Request the drain without waiting for it."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.runner.request_shutdown)

    def stop(self, timeout: float = 30.0) -> None:
        self.signal_stop()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundAsyncServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
