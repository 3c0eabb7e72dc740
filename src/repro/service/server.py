"""``make_server``: the door of :mod:`repro.aserve` behind the four names
``perf/probes.py`` drives; no code path of its own, it goes with ROADMAP 1(d).
"""

from __future__ import annotations

from ..aserve import BackgroundAsyncServer
from .backend import ServiceBackend

__all__ = ["make_server"]


class _Server(BackgroundAsyncServer):
    shutdown = BackgroundAsyncServer.stop

    @property
    def server_address(self) -> tuple[str, int]:
        return self.address

    def serve_forever(self) -> None:
        self._thread.join()  # the door serves from start(); this waits for stop()

    def server_close(self) -> None:
        """Nothing to release: the drain of :meth:`shutdown` closed the listener."""


def make_server(service: ServiceBackend, host: str = "127.0.0.1", port: int = 8000):
    """The door over ``service``, already listening (``port=0``: ephemeral)."""
    return _Server(service, host=host, port=port).start()
