"""JobManager lifecycle: execute, retry, cancel, replay, compaction, GC."""

from __future__ import annotations

import threading
import time

import pytest

from repro import EngineConfig, HypeRService
from repro.api.schemas import answer_from_result
from repro.datasets import make_german_syn
from repro.jobs.journal import Journal, JournalError
from repro.jobs.manager import JobManager, JobNotFound, attach_jobs
from repro.jobs.queue import PRIORITIES, ClientQuotas, QuotaExceeded
from repro.jobs.results import ResultStore

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


def read_journal(path):
    journal = Journal(path)
    try:
        return journal.open()
    finally:
        journal.close()


class BlockingService:
    """Delegates to a real service, holding ``execute`` until released; then
    raises ``error`` if one is given."""

    def __init__(self, inner, error=None):
        self._inner = inner
        self.error = error
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(60)
        if self.error is not None:
            raise self.error
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

    def test_a_journal_error_at_a_finish_keeps_the_worker_alive(
        self, service, tmp_path, monkeypatch, caplog
    ):
        append, failed = Journal.append, []

        def append_failing_one_finish(journal, record_type, job_id, data, **kwargs):
            if record_type == "finish" and not failed:
                failed.append(job_id)
                raise OSError(28, "No space left on device")
            return append(journal, record_type, job_id, data, **kwargs)

        with make_manager(service, tmp_path, n_workers=1) as manager:
            monkeypatch.setattr(Journal, "append", append_failing_one_finish)
            first = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            second = manager.submit(client_id="c1", kind="query", queries=[AVG_TEXT])
            assert manager.wait(second.job_id, timeout=60).state == "succeeded"
        assert failed == [first.job_id]
        assert f"job {first.job_id}: manager-side failure" in caplog.text

    def test_a_finish_the_journal_refuses_leaves_the_job_running_until_replay(
        self, service, tmp_path, monkeypatch, caplog
    ):
        append, failed = Journal.append, []

        def append_failing_one_finish(journal, record_type, job_id, data, **kwargs):
            if record_type == "finish" and not failed:
                failed.append(job_id)
                raise OSError(28, "No space left on device")
            return append(journal, record_type, job_id, data, **kwargs)

        with make_manager(service, tmp_path, n_workers=1) as manager:
            with monkeypatch.context() as patched:
                patched.setattr(Journal, "append", append_failing_one_finish)
                job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
                deadline = time.monotonic() + 60
                while f"job {job.job_id}: manager-side failure" not in caplog.text:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert failed == [job.job_id]
            # not journaled, so not acknowledged: no terminal state, no result
            stuck = manager.get(job.job_id)
            assert (stuck.state, stuck.finished_unix) == ("running", None)
            assert manager.results.get(job.job_id) is None
            assert manager.queue.running_leases == 1  # its lease is still held
            events = [e["event"] for e in manager.events_since(job.job_id, 0)[0]]
            assert events[-1] == "progress"  # no terminal event ends a stream
        with make_manager(service, tmp_path) as reopened:
            done = reopened.wait(job.job_id, timeout=60)
            assert (done.state, done.attempts) == ("succeeded", 2)
            sync = answer_from_result(service.execute(QUERY_TEXT)).to_json()
            assert reopened.results.get(job.job_id)["result"] == sync

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

    @pytest.mark.parametrize("error", [None, RuntimeError("transient backend blip")])
    def test_a_running_job_is_cancelled_cooperatively(self, service, tmp_path, error):
        """A cancel while the job runs is journaled once and lands when the
        query returns, or fails: a cancelled job is not retried."""
        blocking = BlockingService(service, error)
        with make_manager(blocking, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            assert blocking.entered.wait(60)
            assert manager.cancel(job.job_id).cancel_requested
            assert manager.cancel(job.job_id).state == "running"  # asked once
            blocking.release.set()
            assert manager.wait(job.job_id, timeout=60).state == "cancelled"
            events = [e["event"] for e in manager.events_since(job.job_id, 0)[0]]
            assert events.count("cancel_requested") == 1 and events[-1] == "cancelled"
            assert manager.get(job.job_id).attempts == 1

    def test_waiting_past_the_timeout_raises(self, service, tmp_path):
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(
                client_id="c1", kind="query", queries=[QUERY_TEXT],
                run_at_generation=int(service.generation) + 1000,
            )
            with pytest.raises(TimeoutError, match="still 'queued'"):
                manager.wait(job.job_id, timeout=0.0)

    def test_a_closed_manager_refuses_a_submit(self, service, tmp_path):
        manager = make_manager(service, tmp_path)
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])

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

    def test_a_queued_job_with_a_cancel_request_replays_cancelled(self, service, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.open()
        journal.append("submit", "job-never", self._submit_data([QUERY_TEXT]))
        journal.append("cancel_request", "job-never", {})
        journal.close()
        with make_manager(service, tmp_path) as manager:
            assert manager.get("job-never").state == "cancelled"

    def test_a_result_evicted_at_finish_is_not_replayed(self, service, tmp_path, monkeypatch):
        """A result over its client's byte budget is dropped when the job
        finishes, and the journal says so: a reopen does not bring it back."""
        monkeypatch.setattr("repro.jobs.manager._RESULT_MAX_BYTES_PER_CLIENT", 1)
        manager = make_manager(service, tmp_path)
        job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
        assert manager.wait(job.job_id, timeout=60).state == "succeeded"
        assert manager.results.get(job.job_id) is None
        manager.close()
        assert [record.type for record in read_journal(tmp_path / "journal.jsonl")][-1] == "result_gc"
        with make_manager(service, tmp_path) as reopened:
            assert reopened.get(job.job_id).state == "succeeded"
            assert reopened.results.get(job.job_id) is None

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

    def test_a_finished_job_without_a_result_ages_out_for_good(self, service, tmp_path):
        """Past ``job_ttl_seconds`` a terminal job whose result is gone is
        dropped; one whose result is retained, and a queued one, stay; the
        drop survives a reopen."""
        manager = make_manager(service, tmp_path, result_ttl_seconds=0.0, job_ttl_seconds=0.0)
        aged = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
        manager.wait(aged.job_id, timeout=60)
        assert manager.gc_once() == {"expired": 1, "dropped": 1, "compacted": 0}
        with pytest.raises(JobNotFound):
            manager.get(aged.job_id)
        manager.results.ttl_seconds = 3600.0
        kept = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
        manager.wait(kept.job_id, timeout=60)
        queued = manager.submit(
            client_id="c1", kind="query", queries=[QUERY_TEXT],
            run_at_generation=int(service.generation) + 1000,
        )
        assert manager.gc_once() == {"expired": 0, "dropped": 0, "compacted": 0}
        manager.close()
        with make_manager(service, tmp_path) as reopened:
            with pytest.raises(JobNotFound):
                reopened.get(aged.job_id)
            assert reopened.get(kept.job_id).state == "succeeded"
            assert reopened.results.get(kept.job_id) is not None
            assert reopened.get(queued.job_id).state == "queued"

    def test_a_sweep_compacts_a_long_journal(self, service, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.jobs.manager._COMPACT_THRESHOLD", 0)
        with make_manager(service, tmp_path) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            manager.wait(job.job_id, timeout=60)
            assert manager.gc_once()["compacted"] == 1
            assert manager.journal.record_count == 1  # one snapshot per live job

    def test_the_sweeper_thread_expires_results(self, service, tmp_path):
        with make_manager(
            service, tmp_path, result_ttl_seconds=0.0, gc_interval_seconds=0.01
        ) as manager:
            job = manager.submit(client_id="c1", kind="query", queries=[QUERY_TEXT])
            manager.wait(job.job_id, timeout=60)
            deadline = time.monotonic() + 60
            while job.job_id in manager.results and time.monotonic() < deadline:
                time.sleep(0.01)  # the sweeper runs every 10 ms
            assert job.job_id not in manager.results

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


def test_a_clients_results_evict_only_its_own_oldest():
    payload = {"answer": "x" * 40}
    size = ResultStore.measure(payload)
    store = ResultStore(max_bytes_per_client=2 * size)
    assert store.put("b1", "b", payload, now=0.0) == []
    assert store.put("a1", "a", payload, now=0.0) == []
    assert store.put("a2", "a", payload, now=0.0) == []
    assert store.put("a3", "a", payload, now=0.0) == ["a1"]  # b's result is skipped
    assert "b1" in store and "a2" in store and "a1" not in store
    # a result larger than the whole budget is not stored and evicts nothing
    assert store.put("big", "a", {"answer": "x" * (3 * size)}, now=0.0) == ["big"]
    assert "a2" in store and "a3" in store and "big" not in store
    assert store.evictions == 2
    assert store.discard("b1") and not store.discard("b1")


def test_records_that_are_no_checksummed_record_are_skipped(tmp_path):
    import json
    import zlib

    from repro.jobs.journal import _canonical

    path = tmp_path / "journal.jsonl"
    journal = Journal(path)
    journal.open()
    journal.append("submit", "job-1", {"client": "c1"})
    journal.close()
    body = {"seq": 2, "type": "lease"}  # no job, no data
    body["crc"] = zlib.crc32(_canonical(body).encode("utf-8"))
    with open(path, "a") as handle:
        handle.write(json.dumps(body) + "\n")
        handle.write("[1, 2]\n")  # JSON, but no record object
        handle.write('{"seq": 3}\n')  # an object without a checksum
    assert [record.job for record in read_journal(path)] == ["job-1"]


def test_a_closed_journal_cannot_be_rewritten(tmp_path):
    with pytest.raises(JournalError, match="not open"):
        Journal(tmp_path / "journal.jsonl").rewrite([])
