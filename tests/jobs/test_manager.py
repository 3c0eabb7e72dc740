"""JobManager lifecycle: execute, retry, cancel, replay, compaction, GC."""

from __future__ import annotations

import threading

import pytest

from repro import EngineConfig, HypeRService
from repro.api.schemas import answer_from_result
from repro.datasets import make_german_syn
from repro.jobs.journal import Journal
from repro.jobs.manager import JobManager, JobNotFound, attach_jobs
from repro.jobs.queue import PRIORITIES, ClientQuotas, QuotaExceeded

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
AVG_TEXT = "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"


@pytest.fixture(scope="module")
def service():
    dataset = make_german_syn(150, seed=4)
    service = HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )
    yield service
    service.close()


def make_manager(service, tmp_path, **kwargs):
    kwargs.setdefault("retry_base_seconds", 0.01)
    kwargs.setdefault("gc_interval_seconds", 3600.0)  # sweeps run only on demand
    manager = JobManager(service, str(tmp_path / "journal.jsonl"), **kwargs)
    manager.open()
    return manager


class FlakyService:
    """Delegates to a real service but fails ``execute`` N times first."""

    def __init__(self, inner, failures):
        self._inner = inner
        self.failures = failures
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("transient backend blip")
        return self._inner.execute(*args, **kwargs)


class TestExecution:
    def test_query_job_result_matches_sync_execution(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            done = manager.wait(job.job_id, timeout=60)
            assert done.state == "succeeded"
            assert done.attempts == 1
            payload = manager.results.get(job.job_id)
            sync = answer_from_result(service.execute(QUERY_TEXT)).to_json()
            assert payload["result"] == sync
            assert payload["job_id"] == job.job_id
            events = [e["event"] for e in manager.events_since(job.job_id, 0)[0]]
            assert events[0] == "queued"
            assert events[-1] == "succeeded"
            assert "running" in events

    def test_batch_job_mixes_answers_and_envelopes(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(
                client_id="c1",
                kind="batch",
                queries=[QUERY_TEXT, "NOT A QUERY", AVG_TEXT],
            )
            done = manager.wait(job.job_id, timeout=60)
            assert done.state == "succeeded"  # the batch ran; item 1 errored
            assert done.completed == done.total == 3
            payload = manager.results.get(job.job_id)
            assert payload["kind"] == "batch"
            assert "result" in payload["results"][0]
            assert payload["results"][1]["error"]["code"] == "query_syntax"
            assert "result" in payload["results"][2]

    def test_deterministic_failure_is_not_retried(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=["NOT A QUERY"])
            done = manager.wait(job.job_id, timeout=60)
            assert done.state == "failed"
            assert done.error_code == "query_syntax"
            assert done.attempts == 1
            assert manager.results.get(job.job_id) is None

    def test_transient_failures_retry_until_success(self, service, tmp_path):
        flaky = FlakyService(service, failures=2)
        with make_manager(flaky, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            done = manager.wait(job.job_id, timeout=60)
            assert done.state == "succeeded"
            assert done.attempts == 3
            assert manager.stats()["retries"] >= 2  # counter is registry-shared
            sync = answer_from_result(service.execute(QUERY_TEXT)).to_json()
            assert manager.results.get(job.job_id)["result"] == sync

    def test_retry_budget_exhaustion_fails_the_job(self, service, tmp_path):
        flaky = FlakyService(service, failures=99)
        with make_manager(flaky, tmp_path, retry_budget=2) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            done = manager.wait(job.job_id, timeout=60)
            assert done.state == "failed"
            assert done.error_code == "retry_budget_exhausted"
            assert done.attempts == 2

    def test_priority_orders_a_backlog(self, service, tmp_path):
        # a gated manager (no eligible generation) accumulates a backlog,
        # then releasing the gate drains it high-first
        with make_manager(service, tmp_path) as manager:
            gate = int(service.generation) + 1
            low = manager.submit(
                client_id="c1", kind="query", queries=[QUERY_TEXT],
                priority="low", run_at_generation=gate,
            )
            high = manager.submit(
                client_id="c1", kind="query", queries=[QUERY_TEXT],
                priority="high", run_at_generation=gate,
            )
            service.invalidate()  # commit: generation reaches the gate
            manager.wake_workers()
            done_high = manager.wait(high.job_id, timeout=60)
            done_low = manager.wait(low.job_id, timeout=60)
            assert done_high.state == done_low.state == "succeeded"
            assert done_high.finished_unix <= done_low.finished_unix


class TestCancelAndQuotas:
    def test_cancel_queued_job_is_immediate(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(
                client_id="c1",
                kind="query",
                queries=[QUERY_TEXT],
                run_at_generation=int(service.generation) + 1000,  # never runs
            )
            cancelled = manager.cancel(job.job_id)
            assert cancelled.state == "cancelled"
            assert manager.cancel(job.job_id).state == "cancelled"  # idempotent

    def test_quota_rejection_counts_metric(self, service, tmp_path):
        quotas = ClientQuotas(max_queued=1)
        with make_manager(service, tmp_path, quotas=quotas) as manager:
            gate = int(service.generation) + 1000
            manager.submit(
                client_id="c1", kind="query", queries=[QUERY_TEXT],
                run_at_generation=gate,
            )
            with pytest.raises(QuotaExceeded):
                manager.submit(
                    client_id="c1", kind="query", queries=[QUERY_TEXT],
                    run_at_generation=gate,
                )
            # a different client is unaffected by c1's quota
            other = manager.submit(
                client_id="c2", kind="query", queries=[QUERY_TEXT],
                run_at_generation=gate,
            )
            assert other.state == "queued"

    def test_queued_cancel_keeps_anothers_running_lease_counted(self, service, tmp_path):
        # regression: cancelling a never-leased job used to release a
        # running lease the client didn't hold, undercounting running_leases
        # and letting max_running be exceeded
        manager = JobManager(service, str(tmp_path / "journal.jsonl"))
        manager.journal.open()  # no workers: this test leases by hand
        try:
            running = manager.submit(
                client_id="c1", kind="query", queries=[QUERY_TEXT]
            )
            queued = manager.submit(
                client_id="c1",
                kind="query",
                queries=[QUERY_TEXT],
                run_at_generation=int(service.generation) + 1000,  # ineligible
            )
            leased = manager.next_lease(timeout=1.0)
            assert leased is not None and leased.job_id == running.job_id
            assert manager.queue.running_leases == 1
            assert manager.cancel(queued.job_id).state == "cancelled"
            assert manager.queue.running_leases == 1  # c1's lease survives
            assert manager.background_load() == 1
        finally:
            manager.close()

    def test_unknown_job_raises(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            with pytest.raises(JobNotFound):
                manager.get("job-nope")
            with pytest.raises(JobNotFound):
                manager.cancel("job-nope")


class TestReplay:
    def _submit_data(self, queries, *, max_attempts=3, cancel=False):
        return {
            "client": "c1",
            "kind": "query",
            "queries": queries,
            "exhaustive": False,
            "priority": PRIORITIES["normal"],
            "run_at_generation": None,
            "payload_bytes": sum(len(q) for q in queries),
            "max_attempts": max_attempts,
            "created_unix": 1.0,
        }

    def test_terminal_jobs_replay_without_reexecution(self, service, tmp_path):
        manager = make_manager(service, tmp_path)
        job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
        manager.wait(job.job_id, timeout=60)
        result_before = manager.results.get(job.job_id)
        manager.close()

        flaky = FlakyService(service, failures=99)  # would fail any re-run
        with make_manager(flaky, tmp_path) as reopened:
            replayed = reopened.get(job.job_id)
            assert replayed.state == "succeeded"
            assert replayed.attempts == 1
            assert reopened.results.get(job.job_id) == result_before
            assert flaky.calls == 0  # nothing re-executed

    def test_crashed_lease_is_requeued_and_finishes(self, service, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.open()
        journal.append("submit", "job-crashed", self._submit_data([QUERY_TEXT]))
        journal.append("lease", "job-crashed", {"attempt": 1})
        journal.close()  # no finish record: the process died mid-job
        with make_manager(service, tmp_path) as manager:
            assert manager.replayed_jobs == 1
            done = manager.wait("job-crashed", timeout=60)
            assert done.state == "succeeded"
            assert done.attempts == 2  # the crashed attempt counted
            sync = answer_from_result(service.execute(QUERY_TEXT)).to_json()
            assert manager.results.get("job-crashed")["result"] == sync

    def test_crashed_lease_with_spent_budget_fails(self, service, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.open()
        journal.append(
            "submit", "job-spent", self._submit_data([QUERY_TEXT], max_attempts=1)
        )
        journal.append("lease", "job-spent", {"attempt": 1})
        journal.close()
        with make_manager(service, tmp_path) as manager:
            done = manager.wait("job-spent", timeout=60)
            assert done.state == "failed"
            assert done.error_code == "retry_budget_exhausted"

    def test_crashed_lease_with_cancel_request_is_cancelled(self, service, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.open()
        journal.append("submit", "job-bye", self._submit_data([QUERY_TEXT]))
        journal.append("lease", "job-bye", {"attempt": 1})
        journal.append("cancel_request", "job-bye", {})
        journal.close()
        with make_manager(service, tmp_path) as manager:
            done = manager.wait("job-bye", timeout=60)
            assert done.state == "cancelled"

    def test_compaction_preserves_state_across_reopen(self, service, tmp_path):
        manager = make_manager(service, tmp_path)
        ok = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
        bad = manager.submit(client_id="c2", kind="query", queries=["NOT A QUERY"])
        manager.wait(ok.job_id, timeout=60)
        manager.wait(bad.job_id, timeout=60)
        result_before = manager.results.get(ok.job_id)
        manager.compact()
        assert manager.journal.record_count == 2  # one snapshot per live job
        manager.close()
        with make_manager(service, tmp_path) as reopened:
            assert reopened.get(ok.job_id).state == "succeeded"
            assert reopened.get(bad.job_id).state == "failed"
            assert reopened.results.get(ok.job_id) == result_before


    def test_concurrent_compaction_never_loses_acknowledged_submits(
        self, service, tmp_path
    ):
        # regression: submit once journaled its record before inserting the
        # job into the table, so a compaction in that window rewrote the
        # journal without it — an acknowledged job vanished on replay
        manager = JobManager(
            service,
            str(tmp_path / "journal.jsonl"),
            quotas=ClientQuotas(max_queued=10_000),
        )
        manager.journal.open()  # no workers: every job stays queued
        gate = int(service.generation) + 1000
        stop = threading.Event()

        def compact_loop():
            while not stop.is_set():
                manager.compact()

        compactor = threading.Thread(target=compact_loop, daemon=True)
        compactor.start()
        acknowledged = []
        try:
            for _ in range(200):
                job = manager.submit(
                    client_id="c1",
                    kind="query",
                    queries=[QUERY_TEXT],
                    run_at_generation=gate,
                )
                acknowledged.append(job.job_id)
        finally:
            stop.set()
            compactor.join(timeout=60)
        assert not compactor.is_alive()
        manager.close()
        with make_manager(service, tmp_path) as reopened:
            for job_id in acknowledged:
                assert reopened.get(job_id).state == "queued"


class TestGcAndSignals:
    def test_result_ttl_expires_result_but_keeps_status(self, service, tmp_path):
        with make_manager(
            service, tmp_path, result_ttl_seconds=0.0, job_ttl_seconds=3600.0
        ) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            manager.wait(job.job_id, timeout=60)
            swept = manager.gc_once()
            assert swept["expired"] >= 1
            assert manager.results.get(job.job_id) is None
            assert manager.get(job.job_id).state == "succeeded"

    def test_signals_and_stats_shapes(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            manager.wait(job.job_id, timeout=60)
            signals = manager.signals()
            assert set(signals) >= {
                "queued", "running", "background_load", "results_retained",
            }
            stats = manager.stats()
            assert stats["jobs"] == 1
            assert stats["finished"].get("succeeded", 0) >= 1  # registry-shared
            assert stats["journal"]["records"] >= 2

    def test_attach_jobs_wires_serving_signals(self, tmp_path):
        dataset = make_german_syn(120, seed=7)
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        try:
            manager = attach_jobs(service, str(tmp_path / "journal.jsonl"))
            assert service.jobs is manager
            signals = service.serving_signals()
            assert "jobs" in signals
            assert signals["jobs"]["queued"] == 0
            stats = service.stats()
            assert "jobs" in stats
            manager.close()
        finally:
            service.close()
