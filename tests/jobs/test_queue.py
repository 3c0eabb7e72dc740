"""Scheduling and quota semantics of the per-client weighted priority queue."""

from __future__ import annotations

import pytest

from repro.jobs.queue import PRIORITIES, ClientQuotas, Job, JobQueue, QuotaExceeded


def make_job(job_id, client="c1", priority="normal", seq=0, **kwargs):
    return Job(
        job_id=job_id,
        client_id=client,
        kind="query",
        queries=["Q"],
        priority=PRIORITIES[priority],
        submit_seq=seq,
        **kwargs,
    )


def drain(queue, *, generation=0, now=0.0):
    order = []
    while True:
        job = queue.lease(generation=generation, now=now)
        if job is None:
            return order
        order.append(job.job_id)
        queue.finish(job)


class TestScheduling:
    def test_priority_beats_submit_order(self):
        queue = JobQueue()
        queue.enqueue(make_job("low", priority="low", seq=1))
        queue.enqueue(make_job("normal", priority="normal", seq=2))
        queue.enqueue(make_job("high", priority="high", seq=3))
        assert drain(queue) == ["high", "normal", "low"]

    def test_fifo_within_one_client_and_priority(self):
        queue = JobQueue()
        for index in range(4):
            queue.enqueue(make_job(f"j{index}", seq=index))
        assert drain(queue) == ["j0", "j1", "j2", "j3"]

    def test_fair_interleaving_across_clients(self):
        # client a bulk-submits before client b; fair queuing must not let a
        # starve b — after a's first lease, b's first job is older in vtime
        queue = JobQueue(ClientQuotas(max_running=99))
        for index in range(3):
            queue.enqueue(make_job(f"a{index}", client="a", seq=index))
        queue.enqueue(make_job("b0", client="b", seq=10))
        order = drain(queue)
        assert order.index("b0") < order.index("a1")

    def test_run_at_generation_gates_until_commit(self):
        queue = JobQueue()
        queue.enqueue(make_job("deferred", seq=1, run_at_generation=5))
        queue.enqueue(make_job("now", seq=2))
        assert queue.lease(generation=4, now=0.0).job_id == "now"
        assert queue.lease(generation=4, now=0.0) is None
        assert queue.lease(generation=5, now=0.0).job_id == "deferred"

    def test_backoff_gate_defers_until_not_before(self):
        queue = JobQueue()
        job = make_job("retrying", seq=1)
        job.not_before = 100.0
        queue.enqueue(job)
        assert queue.lease(generation=0, now=99.0) is None
        assert queue.lease(generation=0, now=100.0).job_id == "retrying"


class TestQuotas:
    def test_max_queued_rejects_submit(self):
        queue = JobQueue(ClientQuotas(max_queued=2))
        queue.enqueue(make_job("j1", seq=1))
        queue.enqueue(make_job("j2", seq=2))
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.check_quota("c1", 0)
        assert excinfo.value.quota == "max_queued"
        assert excinfo.value.limit == 2
        queue.check_quota("other-client", 0)  # scoped per client

    def test_max_queued_bytes_rejects_submit(self):
        queue = JobQueue(ClientQuotas(max_queued_bytes=100))
        queue.enqueue(make_job("j1", seq=1, payload_bytes=80))
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.check_quota("c1", 30)
        assert excinfo.value.quota == "max_queued_bytes"
        queue.check_quota("c1", 20)  # exactly at the budget is fine

    def test_max_running_skips_client_but_not_others(self):
        queue = JobQueue(ClientQuotas(max_running=1))
        queue.enqueue(make_job("a1", client="a", seq=1))
        queue.enqueue(make_job("a2", client="a", seq=2))
        queue.enqueue(make_job("b1", client="b", seq=3))
        first = queue.lease(generation=0, now=0.0)
        assert first.job_id == "a1"
        second = queue.lease(generation=0, now=0.0)
        assert second.job_id == "b1"  # a is at its cap; b proceeds
        assert queue.lease(generation=0, now=0.0) is None
        queue.finish(first)
        assert queue.lease(generation=0, now=0.0).job_id == "a2"

    def test_replay_enqueue_bypasses_quota(self):
        queue = JobQueue(ClientQuotas(max_queued=1))
        queue.enqueue(make_job("j1", seq=1))
        queue.enqueue(make_job("j2", seq=2), enforce_quota=False)
        assert len(queue) == 2


class TestBookkeeping:
    def test_requeue_returns_job_for_retry(self):
        queue = JobQueue()
        queue.enqueue(make_job("j1", seq=1))
        job = queue.lease(generation=0, now=0.0)
        assert queue.running_leases == 1
        queue.requeue(job)
        assert queue.running_leases == 0
        assert queue.lease(generation=0, now=0.0).job_id == "j1"

    def test_remove_cancels_queued_only(self):
        queue = JobQueue()
        queue.enqueue(make_job("j1", seq=1))
        job = queue.lease(generation=0, now=0.0)
        assert not queue.remove(job)  # running, not queued
        queue.finish(job)
        other = make_job("j2", seq=2)
        queue.enqueue(other)
        assert queue.remove(other)
        assert len(queue) == 0

    def test_stats_shape(self):
        queue = JobQueue()
        queue.enqueue(make_job("j1", seq=1, payload_bytes=10))
        stats = queue.stats()
        assert stats["queued"] == 1
        assert stats["clients_queued"] == {"c1": 1}
        assert stats["queued_bytes"] == {"c1": 10}


def test_a_finished_lease_leaves_the_clients_other_lease_counted():
    queue = JobQueue(ClientQuotas(max_running=2))
    queue.enqueue(make_job("first", client="a", seq=1))
    queue.enqueue(make_job("second", client="a", seq=2))
    queue.enqueue(make_job("third", client="a", seq=3))
    first = queue.lease(generation=0, now=0.0)
    queue.lease(generation=0, now=0.0)
    assert queue.lease(generation=0, now=0.0) is None  # two running: at the cap
    queue.finish(first)
    assert queue.lease(generation=0, now=0.0).job_id == "third"
    assert queue.lease(generation=0, now=0.0) is None  # the second still counts
