"""Background worker loop: lease → execute → checkpoint → finish.

Each worker thread asks the :class:`~repro.jobs.manager.JobManager` for the
next eligible lease (the queue applies priority, weighted fairness, quota,
backoff, and ``run_at_generation`` gating), then executes the job's queries
against the serving store — a :class:`~repro.service.session.HypeRService`
or a :class:`~repro.cluster.coordinator.ClusterCoordinator`; both expose
the same ``execute`` surface.

Execution bookkeeping:

- a job is one engine call (``execute`` for a query, ``execute_many`` for
  a batch); each answer it yields then **checkpoints** a progress record
  (unsynced — a lost checkpoint only costs re-execution) and emits a
  progress event for ``GET /v1/jobs/{id}/events`` streams;
- **cancellation** is honored before the engine call; a cancel requested
  during it discards the answers and finishes the job ``cancelled``;
- deterministic failures (:class:`~repro.exceptions.HypeRError` — syntax,
  semantics, payload) fail the job immediately; anything else is treated
  as transient and **retried** with exponential backoff until the job's
  attempt budget is spent (crashed leases found at replay re-enter the
  same path);
- time spent inside the engine is tracked so
  ``HypeRService.serving_signals()`` can report background load to the
  interactive admission controller.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from ..exceptions import HypeRError
from ..obs import trace as obs_trace
from .queue import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .manager import JobManager

__all__ = ["JobExecutor"]


class JobExecutor:
    """N daemon worker threads draining one manager's queue."""

    def __init__(
        self,
        manager: "JobManager",
        *,
        n_workers: int = 1,
        poll_seconds: float = 0.25,
    ):
        self.manager = manager
        self.n_workers = max(1, int(n_workers))
        self.poll_seconds = poll_seconds
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> None:
        self._stop.clear()
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker, name=f"jobs-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self.manager.wake_workers()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- worker loop -------------------------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            job = self.manager.next_lease(timeout=self.poll_seconds)
            if job is None:
                continue
            try:
                self._run(job)
            except Exception:  # noqa: BLE001 - a worker must never die
                # _run handles job-level errors itself; anything escaping is
                # manager-side (journal I/O after close during shutdown)
                if not self._stop.is_set():
                    raise

    def _run(self, job: "Job") -> None:
        manager = self.manager
        started = time.perf_counter()
        trace = obs_trace.TraceContext(request_id=job.job_id, root_name="job")
        try:
            with obs_trace.activate(trace):
                with obs_trace.span(
                    "job.execute",
                    job=job.job_id,
                    kind=job.kind,
                    attempt=job.attempts,
                ):
                    payload = self._execute(job)
        except Exception as error:  # noqa: BLE001 - classified below
            trace.finish()
            retryable = not isinstance(error, HypeRError)
            manager.on_job_error(job, error, retryable=retryable)
            return
        trace.finish()
        elapsed = time.perf_counter() - started
        if job.cancel_requested:
            manager.on_job_cancelled(job)
        else:
            manager.on_job_success(job, payload, elapsed=elapsed)

    def _execute(self, job: "Job") -> dict[str, Any] | None:
        """Run the job's queries; returns the result payload (None if cancelled).

        A single-query job answers with one typed answer; a batch job mirrors
        ``/v1/batch`` semantics — per-item answers or error envelopes, the
        job itself succeeding once every item has been attempted.  A batch
        on a single node is answered under one pinned snapshot in
        ``threads`` and ``processes`` mode alike (``HypeRService.answer``),
        so every item sees the same generation.
        """
        from ..api.endpoints import envelope_for
        from ..api.schemas import answer_from_result

        manager = self.manager
        service = manager.service
        generation = int(service.generation)
        job.generation = generation
        if job.cancel_requested:
            return None
        if job.kind == "batch":
            with manager.track_engine():
                outcomes = service.execute_many(job.queries, return_errors=True)
            items: list[dict[str, Any]] = []
            for index, outcome in enumerate(outcomes):
                if isinstance(outcome, Exception):
                    _status, envelope = envelope_for(outcome)
                    items.append({"index": index, "error": envelope.to_json()})
                else:
                    items.append(
                        {"index": index, "result": answer_from_result(outcome).to_json()}
                    )
                manager.checkpoint(job, completed=index + 1)
            return {"kind": "batch", "results": items}
        with manager.track_engine():
            result = service.execute(job.queries[0], exhaustive=job.exhaustive)
        manager.checkpoint(job, completed=1)
        return {"kind": "query", "result": answer_from_result(result).to_json()}
