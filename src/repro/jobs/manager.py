""":class:`JobManager` — journal + queue + executor + results, one façade:
crash replay, submit / cancel / wait, event streams and GC.

The manager owns the durable job table.  Every externally visible state
transition is journaled *before* it is acknowledged; ``docs/jobs.md``, "The
journal", lists the records and which are fsynced.

**Replay** (:meth:`JobManager.open`) folds the records back into the job
table: queued jobs re-enter the queue, running jobs become *crashed leases*
(requeued with exponential backoff while attempts remain, failed
otherwise), terminal jobs restore their retained results.  Because job
execution is deterministic, a re-executed crashed lease produces results
bitwise-identical to what the synchronous path would have answered.

The manager feeds interactive admission: `HypeRService.serving_signals()`
adds :meth:`background_load` — leases currently held minus leases actually
inside the engine (those already count as in-flight) — so a front door
sees queued-behind-jobs pressure before it over-admits.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Iterator

from ..obs.metrics import Figure, MetricsRegistry, Reported
from .executor import JobExecutor
from .journal import Journal, JournalRecord
from .queue import (
    PRIORITIES,
    ClientQuotas,
    Job,
    JobQueue,
    QuotaExceeded,
)
from .results import ResultStore

__all__ = ["JobManager", "JobNotFound", "attach_jobs"]


class JobNotFound(KeyError):
    """No job with the requested id (never existed, or aged out)."""

    def __init__(self, job_id: str):
        super().__init__(job_id)
        self.job_id = job_id


# longest backoff before a crashed lease's retry
_RETRY_CAP_SECONDS = 30.0
# retained result bytes one client may hold before its oldest are evicted
_RESULT_MAX_BYTES_PER_CLIENT = 32 * 1024 * 1024
# journal records past which gc_once compacts the journal
_COMPACT_THRESHOLD = 4096
# progress events kept per job for GET /v1/jobs/{id}/events
_MAX_EVENTS_PER_JOB = 512


def _new_job_id() -> str:
    return "job-" + uuid.uuid4().hex[:16]


def _per_label(counter: Any) -> dict[str, int]:
    return {name: int(count) for name, count in counter.per_label().items()}


class JobManager(Reported):
    """The durable async job service for one serving store."""

    #: ``stats()``: the serving store's ``jobs`` section
    FIGURES = (
        Figure("jobs", lambda manager: len(manager._jobs)),
        Figure("queue", lambda manager: manager.queue.stats()),
        Figure("results", lambda manager: manager.results.stats()),
        Figure("journal.records", lambda manager: manager.journal.record_count,
               "hyper_jobs_journal_records",
               "Live records in the job journal (compaction resets this)"),
        Figure("journal.dropped_on_replay", lambda manager: manager.journal.dropped_records),
        Figure("replayed_jobs", attrgetter("replayed_jobs")),
        Figure("submitted", lambda manager: _per_label(manager._m_submitted)),
        Figure("finished", lambda manager: _per_label(manager._m_finished)),
        Figure("retries", lambda manager: int(manager._m_retries.value)),
    )

    def __init__(
        self,
        service: Any,
        journal_path: str,
        *,
        quotas: ClientQuotas | None = None,
        n_workers: int = 1,
        retry_budget: int = 3,
        retry_base_seconds: float = 0.25,
        result_ttl_seconds: float = 3600.0,
        job_ttl_seconds: float | None = None,
        gc_interval_seconds: float = 5.0,
    ):
        self.service = service
        self.journal = Journal(journal_path)
        self.queue = JobQueue(quotas)
        self.results = ResultStore(
            max_bytes_per_client=_RESULT_MAX_BYTES_PER_CLIENT,
            ttl_seconds=result_ttl_seconds,
        )
        self.retry_budget = max(1, int(retry_budget))
        self.retry_base_seconds = retry_base_seconds
        self.job_ttl_seconds = (
            job_ttl_seconds if job_ttl_seconds is not None else 4 * result_ttl_seconds
        )
        self.gc_interval_seconds = gc_interval_seconds
        self._jobs: dict[str, Job] = {}
        self._events: dict[str, list[dict[str, Any]]] = {}
        self._cond = threading.Condition()
        self._submit_seq = 0
        self._engine_active = 0
        self._engine_lock = threading.Lock()
        self._closed = False
        self.replayed_jobs = 0
        self.executor = JobExecutor(self, n_workers=n_workers)
        self._gc_stop = threading.Event()
        self._gc_thread: threading.Thread | None = None
        self._declare_metrics()

    # -- metrics -----------------------------------------------------------------------

    def _declare_metrics(self) -> None:
        registry = self.metrics = self.service.metrics
        self._m_submitted = registry.counter(
            "hyper_jobs_submitted_total",
            "Jobs accepted by POST /v1/jobs",
            labelnames=("priority",),
        )
        self._m_finished = registry.counter(
            "hyper_jobs_finished_total",
            "Jobs reaching a terminal state",
            labelnames=("state",),
        )
        self._m_retries = registry.counter(
            "hyper_jobs_retries_total",
            "Leases requeued after a transient failure or crash",
        )
        self._m_quota_rejections = registry.counter(
            "hyper_jobs_quota_rejections_total",
            "Submits rejected by a per-client quota",
            labelnames=("quota",),
        )
        self._m_exec_seconds = registry.histogram(
            "hyper_jobs_execution_seconds",
            "Wall-clock execution time of successful job attempts",
        )
        self.register_metrics(registry)

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """The manager's series, its queue's and its result store's on ``registry``."""
        super().register_metrics(registry)
        self.queue.register_metrics(registry)
        self.results.register_metrics(registry)

    # -- lifecycle ---------------------------------------------------------------------

    def open(self) -> "JobManager":
        """Replay the journal, requeue recovered work, start workers + GC."""
        records = self.journal.open()
        self._replay(records)
        self.executor.start()
        self._gc_stop.clear()
        self._gc_thread = threading.Thread(
            target=self._gc_loop, name="jobs-gc", daemon=True
        )
        self._gc_thread.start()
        return self

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop workers and the GC sweeper, flush and close the journal.

        A lease in flight when the executor stops is *not* awaited to
        completion beyond ``timeout``; its lease record stays un-finished in
        the journal, so the next :meth:`open` requeues it exactly like a
        crashed lease.
        """
        if self._closed:
            return
        self._closed = True
        self.executor.stop(timeout=timeout)
        self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=timeout)
            self._gc_thread = None
        self.journal.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- replay ------------------------------------------------------------------------

    def _replay(self, records: list[JournalRecord]) -> None:
        now_unix = time.time()
        now_mono = time.monotonic()
        for record in records:
            data = record.data
            if record.type in ("submit", "snapshot"):
                job = Job(
                    job_id=record.job,
                    client_id=data["client"],
                    kind=data["kind"],
                    queries=list(data["queries"]),
                    exhaustive=bool(data.get("exhaustive", False)),
                    priority=int(data.get("priority", PRIORITIES["normal"])),
                    run_at_generation=data.get("run_at_generation"),
                    payload_bytes=int(data.get("payload_bytes", 0)),
                    max_attempts=int(data.get("max_attempts", self.retry_budget)),
                    created_unix=float(data.get("created_unix", now_unix)),
                    submit_seq=record.seq,
                )
                if record.type == "snapshot":
                    job.state = data.get("state", "queued")
                    job.attempts = int(data.get("attempts", 0))
                    job.completed = int(data.get("completed", 0))
                    job.finished_unix = data.get("finished_unix")
                    job.error = data.get("error")
                    job.error_code = data.get("error_code")
                    job.generation = data.get("generation")
                    job.cancel_requested = bool(data.get("cancel_requested", False))
                    result = data.get("result")
                    if result is not None:
                        self.results.put(
                            job.job_id,
                            job.client_id,
                            result,
                            now=float(data.get("result_stored_unix", now_unix)),
                        )
                self._jobs[job.job_id] = job
                self._events[job.job_id] = []
            elif record.job in self._jobs:
                job = self._jobs[record.job]
                if record.type == "lease":
                    job.attempts = int(data.get("attempt", job.attempts + 1))
                    job.state = "running"
                    job.completed = 0
                elif record.type == "progress":
                    job.completed = int(data.get("completed", job.completed))
                elif record.type == "cancel_request":
                    job.cancel_requested = True
                elif record.type == "finish":
                    job.state = data["state"]
                    job.finished_unix = float(data.get("finished_unix", now_unix))
                    job.error = data.get("error")
                    job.error_code = data.get("error_code")
                    job.generation = data.get("generation", job.generation)
                    job.completed = int(data.get("completed", job.completed))
                    result = data.get("result")
                    if result is not None:
                        self.results.put(
                            job.job_id, job.client_id, result, now=job.finished_unix
                        )
                elif record.type == "result_gc":
                    self.results.discard(record.job)
                elif record.type == "drop":
                    self._jobs.pop(record.job, None)
                    self._events.pop(record.job, None)
                    self.results.discard(record.job)
        self._submit_seq = records[-1].seq if records else 0
        # Fold recovered non-terminal work back into the scheduler.
        for job in self._jobs.values():
            if job.terminal:
                self._events[job.job_id] = [
                    self._event_dict(job, "replayed"),
                    self._event_dict(job, job.state),
                ]
                continue
            self.replayed_jobs += 1
            if job.state == "running":
                # crashed lease: the attempt counted but never finished
                if job.cancel_requested:
                    self._finish_replayed(job, "cancelled", now_unix)
                    continue
                if job.attempts >= job.max_attempts:
                    job.error = (
                        f"crashed lease: retry budget of {job.max_attempts} "
                        "attempt(s) exhausted"
                    )
                    job.error_code = "retry_budget_exhausted"
                    self._finish_replayed(job, "failed", now_unix)
                    continue
                self._m_retries.inc()
                job.completed = 0
                job.not_before = now_mono + self._backoff(job.attempts)
            elif job.cancel_requested:
                self._finish_replayed(job, "cancelled", now_unix)
                continue
            self.queue.enqueue(job, enforce_quota=False)
            self._events[job.job_id] = [
                self._event_dict(job, "replayed"),
                self._event_dict(job, "queued"),
            ]

    def _finish_replayed(self, job: Job, state: str, now_unix: float) -> None:
        job.state = state
        job.finished_unix = now_unix
        self.journal.append(
            "finish",
            job.job_id,
            {
                "state": state,
                "finished_unix": now_unix,
                "error": job.error,
                "error_code": job.error_code,
                "completed": job.completed,
            },
            sync=False,
        )
        self._m_finished.labels(state=state).inc()
        self._events[job.job_id] = [
            self._event_dict(job, "replayed"),
            self._event_dict(job, state),
        ]

    def _backoff(self, attempt: int) -> float:
        return min(
            _RETRY_CAP_SECONDS,
            self.retry_base_seconds * (2.0 ** max(0, attempt - 1)),
        )

    # -- submit / cancel / introspection ------------------------------------------------

    def submit(
        self,
        *,
        client_id: str,
        kind: str,
        queries: list[str],
        priority: str = "normal",
        run_at_generation: int | None = None,
        exhaustive: bool = False,
    ) -> Job:
        """Durably accept a job; it is journaled before this returns."""
        if self._closed:
            raise RuntimeError("job manager is closed")
        payload_bytes = sum(len(query.encode("utf-8")) for query in queries)
        try:
            self.queue.check_quota(client_id, payload_bytes)
        except QuotaExceeded as error:
            self._m_quota_rejections.labels(quota=error.quota).inc()
            raise
        now = time.time()
        job = Job(
            job_id=_new_job_id(),
            client_id=client_id,
            kind=kind,
            queries=list(queries),
            exhaustive=exhaustive,
            priority=PRIORITIES[priority],
            run_at_generation=run_at_generation,
            payload_bytes=payload_bytes,
            max_attempts=self.retry_budget,
            created_unix=now,
        )
        # The append happens under _cond so compaction (which snapshots
        # _jobs while holding _cond) can never rewrite the journal between
        # this record becoming durable and the job entering the table — a
        # crash after the 202 must always find the job on replay.
        with self._cond:
            job.submit_seq = self.journal.append(
                "submit",
                job.job_id,
                {
                    "client": client_id,
                    "kind": kind,
                    "queries": job.queries,
                    "exhaustive": exhaustive,
                    "priority": job.priority,
                    "run_at_generation": run_at_generation,
                    "payload_bytes": payload_bytes,
                    "max_attempts": job.max_attempts,
                    "created_unix": now,
                },
            )
            self._jobs[job.job_id] = job
            self._events[job.job_id] = []
            self.queue.enqueue(job, enforce_quota=False)
            self._emit_locked(job, "queued")
            self._cond.notify_all()
        self._m_submitted.labels(priority=job.priority_name).inc()
        return job

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    def list_jobs(self, client_id: str | None = None) -> list[Job]:
        jobs = list(self._jobs.values())
        if client_id is not None:
            jobs = [job for job in jobs if job.client_id == client_id]
        return sorted(jobs, key=lambda job: job.submit_seq)

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate while queued, cooperative while running."""
        job = self.get(job_id)
        with self._cond:
            if job.terminal:
                return job  # idempotent
            if self.queue.remove(job):
                job.cancel_requested = True
                # never leased: there is no running-lease count to release
                self._finish_locked(
                    job, "cancelled", result=None, release_lease=False
                )
                return job
            if not job.cancel_requested:
                job.cancel_requested = True
                self.journal.append("cancel_request", job.job_id, {}, sync=True)
                self._emit_locked(job, "cancel_requested")
        return job

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job is terminal (test/CLI convenience)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                job = self.get(job_id)
                if job.terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state!r} after {timeout}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.5))

    # -- executor callbacks ------------------------------------------------------------

    def next_lease(self, timeout: float) -> Job | None:
        """Lease the next eligible job, waiting up to ``timeout`` for one."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                generation = int(self.service.generation)
                job = self.queue.lease(generation=generation, now=time.monotonic())
                if job is not None:
                    self.journal.append(
                        "lease", job.job_id, {"attempt": job.attempts + 1}
                    )
                    job.attempts += 1
                    job.completed = 0
                    self._emit_locked(job, "running")
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(timeout=remaining)

    def wake_workers(self) -> None:
        with self._cond:
            self._cond.notify_all()

    @contextmanager
    def track_engine(self) -> Iterator[None]:
        """Mark a lease as *inside the engine* (its in-flight slot counts there)."""
        with self._engine_lock:
            self._engine_active += 1
        try:
            yield
        finally:
            with self._engine_lock:
                self._engine_active -= 1

    def checkpoint(self, job: Job, *, completed: int) -> None:
        job.completed = completed
        self.journal.append(
            "progress", job.job_id, {"completed": completed}, sync=False
        )
        with self._cond:
            self._emit_locked(job, "progress")

    def on_job_success(
        self, job: Job, payload: dict[str, Any], *, elapsed: float
    ) -> None:
        self._m_exec_seconds.observe(elapsed)
        with self._cond:
            self._finish_locked(job, "succeeded", result=payload)

    def on_job_cancelled(self, job: Job) -> None:
        with self._cond:
            self._finish_locked(job, "cancelled", result=None)

    def on_job_error(self, job: Job, error: Exception, *, retryable: bool) -> None:
        from ..api.endpoints import envelope_for

        _status, envelope = envelope_for(error)
        with self._cond:
            if job.cancel_requested:
                self._finish_locked(job, "cancelled", result=None)
                return
            if retryable and job.attempts < job.max_attempts:
                self._m_retries.inc()
                job.completed = 0
                job.not_before = time.monotonic() + self._backoff(job.attempts)
                self.queue.requeue(job)
                self._emit_locked(
                    job, "retry_scheduled", error=str(error)[:500]
                )
                self._cond.notify_all()
                return
            job.error = envelope.message
            job.error_code = envelope.code
            if retryable:
                job.error = (
                    f"{envelope.message} (retry budget of {job.max_attempts} "
                    "attempt(s) exhausted)"
                )
                job.error_code = "retry_budget_exhausted"
            self._finish_locked(job, "failed", result=None)

    def _finish_locked(
        self,
        job: Job,
        state: str,
        *,
        result: dict[str, Any] | None,
        release_lease: bool = True,
    ) -> None:
        """Terminal transition; caller holds ``_cond``.

        The ``finish`` record is journaled first: if the append raises, the
        job is untouched — still ``running`` under its lease, no result
        stored — and the next :meth:`open` replays it as a crashed lease.

        ``release_lease=False`` is for jobs that were never leased (a cancel
        while still queued) — releasing a lease they don't hold would steal
        a running-count slot from one of the client's live leases.
        """
        finished_unix = time.time()
        stored_result = None
        if result is not None:
            stored_result = {
                "api_version": "v1",
                "job_id": job.job_id,
                **result,
            }
        self.journal.append(
            "finish",
            job.job_id,
            {
                "state": state,
                "finished_unix": finished_unix,
                "generation": job.generation,
                "completed": job.completed,
                "error": job.error,
                "error_code": job.error_code,
                "result": stored_result,
            },
        )
        job.state = state
        job.finished_unix = finished_unix
        if release_lease:
            self.queue.finish(job)
        if stored_result is not None:
            evicted = self.results.put(
                job.job_id, job.client_id, stored_result, now=job.finished_unix
            )
            for evicted_id in evicted:
                self.journal.append("result_gc", evicted_id, {}, sync=False)
        self._m_finished.labels(state=state).inc()
        self._emit_locked(job, state)
        self._cond.notify_all()

    # -- events ------------------------------------------------------------------------

    def _event_dict(self, job: Job, event: str, **extra: Any) -> dict[str, Any]:
        return {
            "event": event,
            "job_id": job.job_id,
            "state": job.state,
            "completed": job.completed,
            "total": job.total,
            "attempts": job.attempts,
            **extra,
        }

    def _emit_locked(self, job: Job, event: str, **extra: Any) -> None:
        events = self._events.setdefault(job.job_id, [])
        if len(events) < _MAX_EVENTS_PER_JOB:
            events.append(self._event_dict(job, event, **extra))
        self._cond.notify_all()

    def events_since(self, job_id: str, cursor: int) -> tuple[list[dict[str, Any]], bool]:
        """Events after ``cursor`` plus whether the job is terminal."""
        with self._cond:
            job = self.get(job_id)
            events = self._events.get(job_id, [])
            return list(events[cursor:]), job.terminal

    # -- signals ---------------------------------------------------------------------

    def background_load(self) -> int:
        """Held leases not currently inside the engine (admission pressure)."""
        with self._engine_lock:
            active = self._engine_active
        return max(0, self.queue.running_leases - active)

    def signals(self) -> dict[str, Any]:
        """The job load admission reads, off the queue's and the result store's figures."""
        queue, results = self.queue.stats(), self.results.stats()
        return {
            "queued": queue["queued"],
            "running": queue["running"],
            "background_load": self.background_load(),
            "results_retained": results["results"],
            "result_bytes": results["bytes"],
        }

    # -- GC / compaction ---------------------------------------------------------------

    def _gc_loop(self) -> None:
        while not self._gc_stop.wait(self.gc_interval_seconds):
            try:
                self.gc_once()
            except Exception:  # noqa: BLE001 - the sweeper must survive
                if self._closed:
                    return

    def gc_once(self) -> dict[str, int]:
        """One sweep: expire results, drop aged-out jobs, maybe compact."""
        now = time.time()
        expired = self.results.sweep(now=now)
        for job_id in expired:
            self.journal.append("result_gc", job_id, {}, sync=False)
        dropped = 0
        with self._cond:
            for job in list(self._jobs.values()):
                if not job.terminal or job.finished_unix is None:
                    continue
                if job.job_id in self.results:
                    continue
                if now - job.finished_unix >= self.job_ttl_seconds:
                    self._jobs.pop(job.job_id, None)
                    self._events.pop(job.job_id, None)
                    self.journal.append("drop", job.job_id, {}, sync=False)
                    dropped += 1
        compacted = 0
        if self.journal.record_count > _COMPACT_THRESHOLD:
            self.compact()
            compacted = 1
        return {"expired": len(expired), "dropped": dropped, "compacted": compacted}

    def compact(self) -> None:
        """Rewrite the journal as one snapshot record per live job."""
        with self._cond:
            snapshot: list[tuple[str, str, dict[str, Any]]] = []
            for job in self._jobs.values():
                data: dict[str, Any] = {
                    "client": job.client_id,
                    "kind": job.kind,
                    "queries": job.queries,
                    "exhaustive": job.exhaustive,
                    "priority": job.priority,
                    "run_at_generation": job.run_at_generation,
                    "payload_bytes": job.payload_bytes,
                    "max_attempts": job.max_attempts,
                    "created_unix": job.created_unix,
                    "state": job.state,
                    "attempts": job.attempts,
                    "completed": job.completed,
                    "finished_unix": job.finished_unix,
                    "error": job.error,
                    "error_code": job.error_code,
                    "generation": job.generation,
                    "cancel_requested": job.cancel_requested,
                }
                result = self.results.get(job.job_id)
                if result is not None:
                    data["result"] = result
                snapshot.append(("snapshot", job.job_id, data))
            self.journal.rewrite(snapshot)
            # submit_seq ordering restarts with the rewritten file
            for index, job in enumerate(
                sorted(self._jobs.values(), key=lambda item: item.submit_seq)
            ):
                job.submit_seq = index + 1


def attach_jobs(service: Any, journal_path: str, **kwargs: Any) -> JobManager:
    """Create, open, and attach a :class:`JobManager` to a serving store.

    Works for both :class:`~repro.service.session.HypeRService` and
    :class:`~repro.cluster.coordinator.ClusterCoordinator` (anything with
    ``execute`` / ``generation`` / ``metrics``).  The manager lands on
    ``service.jobs``, where the door and ``serving_signals()`` find
    it.
    """
    manager = JobManager(service, journal_path, **kwargs)
    manager.open()
    service.jobs = manager
    return manager
