"""A bounded slow-query log keyed by plan fingerprint.

The service records every query completion; entries at or above the
threshold are aggregated per plan-fingerprint digest (count, worst and
latest duration, the request id that last tripped it).  The log is
bounded: when full, the least-recently-updated fingerprint is evicted.
``GET /v1/slow`` serves :meth:`SlowQueryLog.snapshot`.  A backend hands in
its ``hyper_slow_queries_total`` as ``recorded``: the log counts on it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from .metrics import Counter

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    def __init__(
        self,
        capacity: int = 64,
        threshold_seconds: float = 0.1,
        recorded: Counter | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.threshold_seconds = float(threshold_seconds)
        self.recorded = recorded if recorded is not None else Counter("slow_queries_recorded")
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._n_evicted = 0

    def record(
        self,
        fingerprint: str,
        duration_seconds: float,
        *,
        query: str = "",
        request_id: str = "",
        kind: str = "",
    ) -> bool:
        """Record one completion; returns True if it entered the log."""
        if duration_seconds < self.threshold_seconds:
            return False
        with self._lock:
            self.recorded.inc()
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = {
                    "fingerprint": fingerprint,
                    "kind": kind,
                    "query": query,
                    "count": 0,
                    "max_seconds": 0.0,
                    "last_seconds": 0.0,
                    "last_request_id": "",
                    "last_seen": 0.0,
                }
                self._entries[fingerprint] = entry
            entry["count"] += 1
            entry["last_seconds"] = float(duration_seconds)
            entry["max_seconds"] = max(entry["max_seconds"], float(duration_seconds))
            if request_id:
                entry["last_request_id"] = request_id
            if query:
                entry["query"] = query
            if kind:
                entry["kind"] = kind
            entry["last_seen"] = time.time()
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._n_evicted += 1
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view, slowest-by-max first."""
        with self._lock:
            entries = [dict(entry) for entry in self._entries.values()]
            recorded, evicted = int(self.recorded.value), self._n_evicted
        entries.sort(key=lambda entry: entry["max_seconds"], reverse=True)
        return {
            "capacity": self.capacity,
            "threshold_seconds": self.threshold_seconds,
            "recorded": recorded,
            "evicted": evicted,
            "entries": entries,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
