"""Bounded per-client result store with TTL retention.

Terminal job results live here until a client fetches them — or until
retention takes them: each client has a byte budget (oldest results evicted
first when a new one would bust it) and every result has a TTL.  The
:class:`~repro.jobs.manager.JobManager` runs :meth:`sweep` from its GC
thread and journals each eviction, so a replayed journal converges to the
same retained set.

Payload size is measured as the canonical JSON encoding — the same bytes a
``GET /v1/jobs/{id}/result`` response would carry.
"""

from __future__ import annotations

import json
import threading
from operator import attrgetter
from typing import Any

from ..obs.metrics import Figure, Reported

__all__ = ["ResultStore", "StoredResult"]


class StoredResult:
    __slots__ = ("job_id", "client_id", "payload", "nbytes", "stored_unix")

    def __init__(
        self,
        job_id: str,
        client_id: str,
        payload: dict[str, Any],
        nbytes: int,
        stored_unix: float,
    ):
        self.job_id = job_id
        self.client_id = client_id
        self.payload = payload
        self.nbytes = nbytes
        self.stored_unix = stored_unix


class ResultStore(Reported):
    """Retained terminal-job results, bounded per client and by TTL."""

    FIGURES = (
        Figure("results", lambda store: len(store._results)),
        Figure("bytes", lambda store: sum(store._bytes_per_client.values()),
               "hyper_jobs_result_bytes", "Bytes retained in the per-client result store"),
        Figure("bytes_per_client", lambda store: dict(store._bytes_per_client)),
        Figure("evictions", attrgetter("evictions")),
        Figure("expirations", attrgetter("expirations")),
    )

    def __init__(
        self,
        *,
        max_bytes_per_client: int = 32 * 1024 * 1024,
        ttl_seconds: float = 3600.0,
    ):
        self.max_bytes_per_client = max_bytes_per_client
        self.ttl_seconds = ttl_seconds
        self._lock = self._figures_lock = threading.Lock()
        self._results: dict[str, StoredResult] = {}  # insertion-ordered
        self._bytes_per_client: dict[str, int] = {}
        self.evictions = 0
        self.expirations = 0

    @staticmethod
    def measure(payload: dict[str, Any]) -> int:
        return len(json.dumps(payload, separators=(",", ":")).encode("utf-8"))

    def put(
        self, job_id: str, client_id: str, payload: dict[str, Any], *, now: float
    ) -> list[str]:
        """Store a result; returns job ids evicted to fit the byte budget."""
        nbytes = self.measure(payload)
        evicted: list[str] = []
        with self._lock:
            used = self._bytes_per_client.get(client_id, 0)
            if nbytes <= self.max_bytes_per_client:
                # evict this client's oldest results until the new one fits
                for stored in list(self._results.values()):
                    if used + nbytes <= self.max_bytes_per_client:
                        break
                    if stored.client_id != client_id:
                        continue
                    self._drop(stored)
                    used = self._bytes_per_client.get(client_id, 0)
                    self.evictions += 1
                    evicted.append(stored.job_id)
            if used + nbytes > self.max_bytes_per_client:
                # the result alone busts the budget: store nothing, the job
                # status stays terminal with result_available=False
                self.evictions += 1
                evicted.append(job_id)
                return evicted
            self._results[job_id] = StoredResult(
                job_id, client_id, payload, nbytes, now
            )
            self._bytes_per_client[client_id] = used + nbytes
        return evicted

    def get(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            stored = self._results.get(job_id)
            return stored.payload if stored is not None else None

    def discard(self, job_id: str) -> bool:
        """Drop one result (replayed GC record or explicit cancel cleanup)."""
        with self._lock:
            stored = self._results.get(job_id)
            if stored is None:
                return False
            self._drop(stored)
            return True

    def sweep(self, *, now: float) -> list[str]:
        """Expire results past their TTL; returns the expired job ids."""
        expired: list[str] = []
        with self._lock:
            for stored in list(self._results.values()):
                if now - stored.stored_unix >= self.ttl_seconds:
                    self._drop(stored)
                    self.expirations += 1
                    expired.append(stored.job_id)
        return expired

    def _drop(self, stored: StoredResult) -> None:
        del self._results[stored.job_id]
        remaining = self._bytes_per_client.get(stored.client_id, 0) - stored.nbytes
        if remaining > 0:
            self._bytes_per_client[stored.client_id] = remaining
        else:
            self._bytes_per_client.pop(stored.client_id, None)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._results

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)
