"""Admission control: bounded concurrency, bounded queueing, fast rejection.

The controller is the async front door's overload policy.  Capacity is
``max_inflight`` execution slots plus a waiting room of ``queue_depth``
reservations; a request that fits neither is rejected **synchronously on the
event loop** — an O(1) counter check, no awaiting, no thread handoff — with a
``Retry-After`` estimate derived from observed query latency.  Overload
therefore costs the server microseconds per excess request instead of a
thread, a socket buffer, or an unbounded queue entry.

Backpressure signals are read live from the service — one counter
(:meth:`~repro.service.backend.ServingCounters.in_flight`) at every decision,
the whole :meth:`~repro.service.backend.ServingCounters.serving_signals`
snapshot only when the decision is a rejection:

* the **service-level in-flight count** covers executions from *every*
  caller sharing the service (direct library calls, the job executor), so
  capacity consumed elsewhere shrinks what this front door admits;
* the **per-endpoint latency sums** turn the current backlog into the
  ``Retry-After`` hint (backlog × average query seconds / slots);
* rejections are pushed back into the service's counters
  (:meth:`~repro.service.session.HypeRService.record_rejection`), so
  ``stats()["serving"]["rejected_total"]`` is the system-wide truth.

Unit lifecycle: ``try_admit(n)`` reserves ``n`` queued units or raises
:class:`AdmissionRejected`; each unit then moves queued → in-flight via
``await acquire_slot()`` (bounded by the semaphore) and is returned with
``release_slot()``.  ``cancel_reservation`` returns units whose work never
started (client vanished between admission and execution).  ``wait_idle``
is the drain barrier the lifecycle runner blocks on at shutdown.

Decision latencies are kept in a bounded reservoir so ``stats()`` can report
the p50/p99 admission decision time — the ISSUE's acceptance criterion
(p99 < 50 ms) is asserted from exactly these numbers by
``benchmarks/bench_async_load.py``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from operator import attrgetter
from typing import Any

from ..obs.metrics import Figure, MetricsRegistry, Reported, exponential_buckets
from ..service.session import HypeRService

__all__ = ["AdmissionController", "AdmissionRejected", "MIN_RETRY_AFTER"]

# the shortest Retry-After a rejection advertises, in seconds
MIN_RETRY_AFTER = 0.1
# admission decisions kept for stats()'s decision-time quantiles
_DECISION_WINDOW = 4096


class AdmissionRejected(Exception):
    """Raised by ``try_admit`` when the request would exceed capacity."""

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _decision_stats(controller: "AdmissionController") -> dict[str, Any]:
    decisions = sorted(controller._decisions)
    return {
        "count": len(decisions),
        "p50_seconds": _quantile(decisions, 0.50),
        "p99_seconds": _quantile(decisions, 0.99),
        "max_seconds": decisions[-1] if decisions else 0.0,
    }


class AdmissionController(Reported):
    """Bounded admission queue feeding a fixed number of execution slots.

    Single-threaded by construction: every method except ``stats`` must run
    on the event loop, which is what makes the counter arithmetic safe
    without locks and the admission decision O(1).
    """

    FIGURES = (
        Figure("max_inflight", attrgetter("max_inflight")),
        Figure("queue_depth", attrgetter("queue_depth")),
        Figure("in_flight", attrgetter("_inflight"), "aserve_inflight",
               "Units currently holding an execution slot."),
        Figure("queued", attrgetter("_queued"), "aserve_queued",
               "Units admitted but not yet holding an execution slot."),
        Figure("peak_in_flight", attrgetter("_peak_inflight")),
        Figure("peak_queued", attrgetter("_peak_queued")),
        Figure("admitted_total", lambda controller: int(controller._m_admitted.value)),
        Figure("rejected_total", lambda controller: int(controller._m_rejected.value)),
        Figure("decisions", _decision_stats),
    )

    def __init__(
        self,
        max_inflight: int = 8,
        queue_depth: int = 16,
        *,
        service: "HypeRService | None" = None,
        metrics_registry: MetricsRegistry | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self._service = service
        self._slots = asyncio.Semaphore(max_inflight)
        self._queued = 0
        self._inflight = 0
        self._peak_queued = 0
        self._peak_inflight = 0
        self._decisions: deque[float] = deque(maxlen=_DECISION_WINDOW)
        self._idle = asyncio.Event()
        self._idle.set()
        self.metrics = (
            metrics_registry if metrics_registry is not None else MetricsRegistry()
        )
        self._m_admitted = self.metrics.counter(
            "aserve_admitted_total", "Units admitted by the async front door."
        )
        self._m_rejected = self.metrics.counter(
            "aserve_rejected_total", "Units rejected at admission (429s)."
        )
        self._m_queue_wait = self.metrics.histogram(
            "aserve_queue_wait_seconds",
            "Seconds an admitted unit waited for an execution slot.",
            buckets=exponential_buckets(0.0001, 4.0, 12),
        )
        self.register_metrics(self.metrics)

    @property
    def capacity(self) -> int:
        """Total units admitted at once: executing plus queued."""
        return self.max_inflight + self.queue_depth

    @property
    def occupied(self) -> int:
        return self._inflight + self._queued

    # -- the admission decision --------------------------------------------------------

    def try_admit(self, units: int = 1, *, endpoint: str = "query") -> None:
        """Reserve ``units`` of capacity or raise :class:`AdmissionRejected`.

        Synchronous and O(1): called on the event loop between parsing a
        request and dispatching it, so an overloaded server answers 429 in
        microseconds.  A ``/batch`` of *k* queries reserves *k* units in one
        decision — either the whole batch is admitted or none of it.
        """
        started = time.perf_counter()
        try:
            external = 0
            if self._service is not None:
                # work in flight on other front-ends sharing the service
                external = max(0, self._service.in_flight() - self._inflight)
            if self.occupied + external + units > self.capacity:
                self._m_rejected.inc(units)
                signals = None
                if self._service is not None:
                    self._service.record_rejection(endpoint, units=units)
                    # the full snapshot only here: Retry-After needs its latency sums
                    signals = self._service.serving_signals()
                raise AdmissionRejected(
                    f"at capacity: {self._inflight} executing, {self._queued} queued"
                    + (f", {external} external" if external else "")
                    + f" (max_inflight={self.max_inflight}, queue_depth={self.queue_depth})",
                    retry_after=self._estimate_retry_after(units, signals),
                )
            # ``queued`` gauges admitted units not yet holding an execution
            # slot; a freshly admitted batch parks all its units here for an
            # instant even when slots are free, so the hard capacity bound
            # is occupied <= capacity, not queued <= queue_depth.
            self._queued += units
            self._m_admitted.inc(units)
            if self._queued > self._peak_queued:
                self._peak_queued = self._queued
            self._idle.clear()
        finally:
            self._decisions.append(time.perf_counter() - started)

    def _estimate_retry_after(
        self, units: int, signals: dict[str, Any] | None
    ) -> float:
        """Backlog × average query latency / slots, floored at :data:`MIN_RETRY_AFTER`."""
        per_query = 0.1
        if signals is not None:
            bucket = signals.get("latency", {}).get("query")
            if bucket and bucket["count"]:
                per_query = bucket["seconds"] / bucket["count"]
        backlog = self.occupied + units
        return max(MIN_RETRY_AFTER, backlog * per_query / self.max_inflight)

    # -- unit lifecycle ----------------------------------------------------------------

    async def acquire_slot(self) -> None:
        """Move one reserved unit from the queue into execution (may wait)."""
        waited = time.perf_counter()
        try:
            await self._slots.acquire()
        except asyncio.CancelledError:
            self.cancel_reservation()
            raise
        self._m_queue_wait.observe(time.perf_counter() - waited)
        self._queued -= 1
        self._inflight += 1
        if self._inflight > self._peak_inflight:
            self._peak_inflight = self._inflight

    def release_slot(self) -> None:
        """Return one executing unit's slot."""
        self._inflight -= 1
        self._slots.release()
        self._maybe_idle()

    def cancel_reservation(self, units: int = 1) -> None:
        """Return reserved units whose work never started."""
        self._queued -= units
        self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self._inflight + self._queued == 0:
            self._idle.set()

    async def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no unit is queued or executing; the drain barrier."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True
