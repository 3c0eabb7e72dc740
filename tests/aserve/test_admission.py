"""Unit tests of the admission controller: capacity, rejection, backpressure."""

from __future__ import annotations

import asyncio

import pytest

from repro.aserve.admission import MIN_RETRY_AFTER, AdmissionController, AdmissionRejected


def run(coro):
    return asyncio.run(coro)


class TestCapacity:
    def test_admits_up_to_capacity_then_rejects(self):
        async def _run():
            controller = AdmissionController(max_inflight=2, queue_depth=3)
            for _ in range(5):
                controller.try_admit()
            with pytest.raises(AdmissionRejected) as excinfo:
                controller.try_admit()
            assert excinfo.value.retry_after >= MIN_RETRY_AFTER
            stats = controller.stats()
            assert stats["admitted_total"] == 5
            assert stats["rejected_total"] == 1
            assert stats["queued"] == 5  # none started yet

        run(_run())

    def test_batch_units_admitted_atomically(self):
        async def _run():
            controller = AdmissionController(max_inflight=2, queue_depth=2)
            with pytest.raises(AdmissionRejected):
                controller.try_admit(5, endpoint="batch")  # 5 > capacity 4
            assert controller.stats()["admitted_total"] == 0
            controller.try_admit(4, endpoint="batch")
            assert controller.occupied == 4

        run(_run())

    def test_zero_queue_depth_bounds_at_max_inflight(self):
        async def _run():
            controller = AdmissionController(max_inflight=1, queue_depth=0)
            controller.try_admit()
            with pytest.raises(AdmissionRejected):
                controller.try_admit()

        run(_run())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=1, queue_depth=-1)


class TestSlotLifecycle:
    def test_acquire_release_transitions_and_peaks(self):
        async def _run():
            controller = AdmissionController(max_inflight=2, queue_depth=2)
            controller.try_admit(3)
            await controller.acquire_slot()
            await controller.acquire_slot()
            assert controller.stats()["in_flight"] == 2
            assert controller.stats()["queued"] == 1
            # third unit waits for a slot until one is released
            third = asyncio.ensure_future(controller.acquire_slot())
            await asyncio.sleep(0.01)
            assert not third.done()
            controller.release_slot()
            await third
            controller.release_slot()
            controller.release_slot()
            stats = controller.stats()
            assert stats["in_flight"] == 0 and stats["queued"] == 0
            assert stats["peak_in_flight"] == 2
            assert stats["peak_queued"] == 3

        run(_run())

    def test_cancel_reservation_returns_units(self):
        async def _run():
            controller = AdmissionController(max_inflight=1, queue_depth=1)
            controller.try_admit(2)
            controller.cancel_reservation(2)
            assert controller.occupied == 0
            controller.try_admit(2)  # capacity is back

        run(_run())

    def test_wait_idle_blocks_until_drained(self):
        async def _run():
            controller = AdmissionController(max_inflight=1, queue_depth=0)
            controller.try_admit()
            await controller.acquire_slot()
            assert not await controller.wait_idle(timeout=0.02)
            controller.release_slot()
            assert await controller.wait_idle(timeout=1.0)

        run(_run())

    def test_decision_timing_recorded(self):
        async def _run():
            controller = AdmissionController(max_inflight=1, queue_depth=0)
            controller.try_admit()
            with pytest.raises(AdmissionRejected):
                controller.try_admit()
            decisions = controller.stats()["decisions"]
            assert decisions["count"] == 2  # accept and reject both timed
            assert 0 <= decisions["p99_seconds"] < 0.05

        run(_run())


class _StubService:
    """Stands in for HypeRService: controllable serving signals."""

    def __init__(self, in_flight=0, query_count=0, query_seconds=0.0):
        self._in_flight = in_flight
        self._query_count = query_count
        self._query_seconds = query_seconds
        self.rejections: list[tuple[str, int]] = []

    def in_flight(self):
        return self._in_flight

    def serving_signals(self):
        return {
            "in_flight": self._in_flight,
            "peak_in_flight": self._in_flight,
            "rejected_total": 0,
            "rejected": {},
            "capacity_hint": 1,
            "saturation": 0.0,
            "latency": {
                "query": {"count": self._query_count, "seconds": self._query_seconds}
            },
        }

    def record_rejection(self, endpoint="query", *, units=1):
        self.rejections.append((endpoint, units))


class TestBackpressureSignals:
    def test_external_inflight_shrinks_capacity(self):
        async def _run():
            # 3 executions already in flight elsewhere (library calls, job
            # workers) against a capacity of 4: only 1 unit left.
            service = _StubService(in_flight=3)
            controller = AdmissionController(
                max_inflight=2, queue_depth=2, service=service
            )
            controller.try_admit()
            with pytest.raises(AdmissionRejected):
                controller.try_admit()
            assert service.rejections == [("query", 1)]

        run(_run())

    def test_own_inflight_not_double_counted(self):
        async def _run():
            service = _StubService(in_flight=0)
            controller = AdmissionController(
                max_inflight=2, queue_depth=1, service=service
            )
            controller.try_admit(2)
            await controller.acquire_slot()
            await controller.acquire_slot()
            # the service now reports our own 2 executions back to us; they
            # must not count as *external* load on top of our own counters,
            # so the one queue slot is still free
            service._in_flight = 2
            controller.try_admit()
            controller.cancel_reservation()
            controller.release_slot()
            controller.release_slot()

        run(_run())

    def test_retry_after_scales_with_observed_latency(self):
        async def _run():
            slow = _StubService(query_count=10, query_seconds=20.0)  # 2 s/query
            controller = AdmissionController(
                max_inflight=1, queue_depth=1, service=slow
            )
            controller.try_admit(2)
            with pytest.raises(AdmissionRejected) as excinfo:
                controller.try_admit()
            # backlog of 3 x 2 s/query on 1 slot: about 6 seconds
            assert excinfo.value.retry_after == pytest.approx(6.0)

        run(_run())

    def test_rejections_recorded_per_endpoint(self):
        async def _run():
            service = _StubService()
            controller = AdmissionController(
                max_inflight=1, queue_depth=0, service=service
            )
            controller.try_admit()
            with pytest.raises(AdmissionRejected):
                controller.try_admit(4, endpoint="batch")
            assert service.rejections == [("batch", 4)]

        run(_run())
