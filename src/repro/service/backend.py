"""What a serving backend is: the protocol the request core calls, and the
one copy of the serving counters every backend carries.

The request core (:mod:`repro.api.endpoints`), both HTTP doors, admission
control and the job service talk to a backend only through
:class:`ServiceBackend`.  Two implementations exist —
:class:`~repro.service.session.HypeRService` (one node) and
:class:`~repro.cluster.coordinator.ClusterCoordinator` (scatter-gather over
shard nodes) — and both inherit :class:`ServingCounters`, so in-flight
tracking, rejection counts, per-client attribution, the admission signal
snapshot and the head of ``stats()`` are defined once and cannot drift
between them.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..core.queries import HowToQuery, WhatIfQuery
from ..lang.parser import parse_query
from ..lang.unparse import unparse
from ..obs import trace as obs_trace
from ..obs.metrics import ABSENT, Figure, MetricsRegistry, Reported
from ..obs.slowlog import SlowQueryLog
from .versions import Commit

__all__ = ["ServiceBackend", "ServingCounters", "default_max_workers", "raise_first_error"]


def default_max_workers() -> int:
    """A conservative thread count: the CPU count, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def raise_first_error(outcomes: list) -> list:
    """``outcomes``, unless one of them is an exception: the first is raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


@runtime_checkable
class ServiceBackend(Protocol):
    """Everything the serving stack calls on a backend.

    Runtime-checkable so a conformance test can assert each backend
    implements the whole surface — the doors use plain attribute access and
    never probe for optional members.
    """

    #: True when ``execute`` takes a ``deadline=`` keyword and forwards the
    #: remaining budget downstream (a relaying backend)
    accepts_deadline: bool
    #: attached :class:`~repro.jobs.manager.JobManager`, or None — the job
    #: surface then answers 503
    jobs: Any
    metrics: MetricsRegistry
    slow_log: SlowQueryLog
    max_workers: int | None
    generation: int

    def execute(self, query: Any, *, exhaustive: bool = False, **kwargs: Any) -> Any: ...

    def execute_many(self, queries: Sequence[Any], **kwargs: Any) -> list[Any]: ...

    def prepare(self, queries: Any) -> Any: ...

    def update_relation_columns(self, assignments: Any) -> Commit: ...

    def stats(self) -> dict[str, Any]: ...

    def start_pool(self) -> None: ...

    def close(self) -> None: ...

    def close_jobs(self) -> None: ...

    def record_rejection(self, endpoint: str = "query", *, units: int = 1) -> None: ...

    def note_client_request(self, client_id: str, *, rejected: bool = False) -> None: ...

    def client_stats(self) -> dict[str, Any]: ...

    def serving_signals(self) -> dict[str, Any]: ...

    def in_flight(self) -> int: ...


class ServingCounters(Reported):
    """The serving instruments and bookkeeping shared by every backend.

    Each backend gets its own registry by default so stats of co-hosted
    services never mix; the front doors expose it at ``GET /v1/metrics``.
    The serving instruments double as the live backpressure signals read by
    front-end admission control (:mod:`repro.aserve`) via
    :meth:`serving_signals`.  :attr:`FIGURES` is the head of every backend's
    ``stats()``; a backend appends its own sections to it.  Each backend
    defines ``_capacity_hint()``, its own execution capacity (the saturation
    denominator).
    """

    accepts_deadline = False

    FIGURES = (
        Figure("generation", attrgetter("generation"), "hyper_generation",
               "Latest committed database generation"),
        Figure("execution", attrgetter("execution")),
        Figure("n_queries", lambda backend: int(backend._m_queries.value)),
        Figure("n_batches", lambda backend: int(backend._m_batches.value)),
        Figure("uptime_seconds", lambda backend: time.time() - backend._started_at,
               "hyper_uptime_seconds", "Seconds since the backend started"),
        Figure("serving", lambda backend: backend.serving_signals()),
        Figure(None, lambda backend: backend._m_inflight.peak, "hyper_inflight_peak",
               "High-water mark of concurrent tracked executions"),
        Figure("slow_queries.entries", lambda backend: len(backend.slow_log)),
        Figure("slow_queries.recorded", lambda backend: int(backend._m_slow.value)),
        Figure("slow_queries.threshold_seconds", attrgetter("slow_log.threshold_seconds")),
        Figure("clients", lambda backend: backend.client_stats()),
        Figure("jobs", lambda backend: ABSENT if backend.jobs is None else backend.jobs.stats()),
    )

    _MAX_TRACKED_CLIENTS = 512

    def __init__(
        self,
        metrics_registry: MetricsRegistry | None = None,
        *,
        slow_query_seconds: float = 0.1,
        slow_log_size: int = 64,
    ) -> None:
        self.metrics = (
            metrics_registry if metrics_registry is not None else MetricsRegistry()
        )
        self._started_at = time.time()
        m = self.metrics
        self._m_queries = m.counter(
            "hyper_queries_total", "Queries accepted by execute()/execute_many()"
        )
        self._m_batches = m.counter(
            "hyper_batches_total", "Batches accepted by execute_many()"
        )
        self._m_rejected = m.counter(
            "hyper_rejected_total",
            "Requests turned away by front-end admission control",
            labelnames=("endpoint",),
        )
        self._m_latency = m.histogram(
            "hyper_request_seconds",
            "Tracked execution latency per endpoint",
            labelnames=("endpoint",),
        )
        self._m_inflight = m.gauge(
            "hyper_inflight", "Concurrent tracked executions across all front doors"
        )
        self._m_slow = m.counter(
            "hyper_slow_queries_total",
            "Query completions at or above the slow-query threshold",
        )
        #: bounded per-plan-fingerprint slow-query log (GET /v1/slow), counted on _m_slow
        self.slow_log = SlowQueryLog(slow_log_size, slow_query_seconds, self._m_slow)
        #: attached durable job manager (see repro.jobs.attach_jobs); None
        #: means the job surface answers 503
        self.jobs: Any = None
        # Per-client request/rejection counters (X-Client-Id or anonymous
        # per-connection ids).  Bounded: past _MAX_TRACKED_CLIENTS distinct
        # ids, new ones collapse into "_other" so a client-id churn attack
        # cannot grow the map without bound.
        self._clients_lock = threading.Lock()
        self._client_requests: dict[str, int] = {}
        self._client_rejections: dict[str, int] = {}
        self.register_metrics(m)

    def parse(self, query_text: str) -> WhatIfQuery | HowToQuery:
        """Parse SQL-extension text into a query object (no execution)."""
        return parse_query(query_text)

    def _as_query(self, query: Any) -> WhatIfQuery | HowToQuery:
        if isinstance(query, str):
            return self.parse(query)
        from ..api.builder import as_query_object  # lazy: api sits above service

        return as_query_object(query)

    def _record_completion(
        self,
        query: WhatIfQuery | HowToQuery,
        text: str | WhatIfQuery | HowToQuery,
        elapsed: float,
        log_key: Callable[[], tuple[str, str]],
    ) -> None:
        """Feed the slow-query log under ``log_key()``'s key and kind — a plan
        digest for a service, the text for a coordinator — taken, and a query
        object unparsed, only when the threshold trips."""
        if elapsed < self.slow_log.threshold_seconds:
            return
        if not isinstance(text, str):
            try:
                text = unparse(query)
            except Exception:  # noqa: BLE001 - the log is best-effort
                text = repr(query)[:200]
        key, kind = log_key()
        active = obs_trace.current_trace()
        self.slow_log.record(
            key,
            elapsed,
            query=text,
            request_id=active.request_id if active is not None else "",
            kind=kind,
        )

    @contextmanager
    def _track(self, endpoint: str, units: int = 1, observations: int = 1) -> Iterator[None]:
        """Count ``units`` in-flight executions and the endpoint's latency.

        ``units`` is the number of concurrent query executions the tracked
        region represents (a shard-pool batch crossing counts one unit per
        query it carries; a wrapper whose per-query work is tracked elsewhere
        passes 0 so nothing double-counts).  The region's latency is observed
        ``observations`` times: once per query of a plan group answered
        together, each of which waited that long.
        """
        started = time.perf_counter()
        self._m_inflight.inc(units)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._m_inflight.dec(units)
            latency = self._m_latency.labels(endpoint=endpoint)
            for _ in range(observations):
                latency.observe(elapsed)

    def record_rejection(self, endpoint: str = "query", *, units: int = 1) -> None:
        """Count ``units`` requests a front-end turned away (HTTP 429)."""
        self._m_rejected.labels(endpoint=endpoint).inc(units)

    def note_client_request(self, client_id: str, *, rejected: bool = False) -> None:
        """Attribute one front-door request (or admission/quota rejection)
        to a client id, for the per-client section of ``stats()``."""
        with self._clients_lock:
            counters = self._client_requests
            key = client_id
            if key not in counters and len(counters) >= self._MAX_TRACKED_CLIENTS:
                key = "_other"
            counters[key] = counters.get(key, 0) + 1
            if rejected:
                self._client_rejections[key] = self._client_rejections.get(key, 0) + 1

    def client_stats(self) -> dict[str, Any]:
        """Per-client request/rejection counts (bounded; see ``_other``)."""
        with self._clients_lock:
            return {
                "tracked": len(self._client_requests),
                "requests": dict(self._client_requests),
                "rejections": dict(self._client_rejections),
            }

    def in_flight(self) -> int:
        """``serving_signals()["in_flight"]`` without the snapshot around it.

        The one number an admission decision that accepts reads, per request
        on the event loop: tracked executions of every front-end plus job
        leases held but not yet inside the engine.
        """
        count = int(self._m_inflight.value)
        if self.jobs is not None:
            count += self.jobs.background_load()
        return count

    def serving_signals(self) -> dict[str, Any]:
        """A live snapshot of serving load, for rejections and ``stats()``.

        Returns in-flight executions (:meth:`in_flight`: all front-ends sharing
        the backend and held job leases), their peak, total rejections,
        per-endpoint latency sums, a saturation ratio against
        :meth:`_capacity_hint` and, with jobs attached, their load.  No engine
        locks are taken — safe to call on an event loop.
        """
        capacity = self._capacity_hint()
        in_flight = self.in_flight()
        rejected = {k: int(v) for k, v in self._m_rejected.per_label().items()}
        signals: dict[str, Any] = {
            "in_flight": in_flight,
            "peak_in_flight": int(self._m_inflight.peak),
            "rejected_total": sum(rejected.values()),
            "rejected": rejected,
            "capacity_hint": capacity,
            "saturation": in_flight / capacity if capacity else 0.0,
            "latency": {
                endpoint: {"count": child.count, "seconds": child.sum}
                for endpoint, child in self._m_latency.per_label().items()
            },
        }
        if self.jobs is not None:
            signals["jobs"] = self.jobs.signals()
        return signals

    def close_jobs(self) -> None:
        """Stop an attached job manager; call before ``close()``.

        Workers stop and the journal is flushed before the shard pool goes
        away; any lease still running replays as a crashed lease on the
        next start.
        """
        if self.jobs is not None:
            self.jobs.close()
