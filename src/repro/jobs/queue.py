"""Per-client weighted fair priority queue with quotas on queued jobs,
running leases and queued payload bytes, generation gating and retry backoff.

Scheduling order is ``(priority, client virtual time, submit seq)``:

- **priority** — three levels (``high=0, normal=1, low=2``); a queued
  high-priority job always leases before any normal one.
- **client virtual time** — start-time weighted fair queuing *within* a
  priority level.  Each lease advances the leasing client's virtual clock by
  ``1 / weight`` from the global virtual floor, so a client that just got a
  slot moves behind clients that have been waiting — no single client can
  monopolise the executor by submitting in bulk, and a client with weight 2
  drains twice as fast as one with weight 1.
- **submit seq** — FIFO tie-break, so scheduling is deterministic.

Quotas are enforced per client id at two points: **submit** rejects when the
client is over its queued-job or queued-payload-bytes budget
(:class:`QuotaExceeded` → HTTP 429), and **lease** skips clients already at
their running-lease cap (their jobs stay queued; others proceed).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..obs.metrics import Figure, Reported

__all__ = ["ClientQuotas", "Job", "JobQueue", "QuotaExceeded", "PRIORITIES"]

#: wire name → scheduling level (lower leases first)
PRIORITIES = {"high": 0, "normal": 1, "low": 2}
PRIORITY_NAMES = {level: name for name, level in PRIORITIES.items()}

#: job lifecycle states (terminal: succeeded / failed / cancelled)
STATES = ("queued", "running", "succeeded", "failed", "cancelled")
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled"})


class QuotaExceeded(RuntimeError):
    """A submit would push the client past one of its quotas."""

    def __init__(self, message: str, *, quota: str, limit: int):
        super().__init__(message)
        self.quota = quota
        self.limit = limit


@dataclass(frozen=True)
class ClientQuotas:
    """Per-client budgets (every client gets the same ones)."""

    max_queued: int = 64
    max_running: int = 2
    max_queued_bytes: int = 8 * 1024 * 1024
    weight: float = 1.0


@dataclass
class Job:
    """One submitted job — scheduling fields plus execution bookkeeping."""

    job_id: str
    client_id: str
    kind: str  # "query" | "batch"
    queries: list[str]
    exhaustive: bool = False
    priority: int = PRIORITIES["normal"]
    run_at_generation: int | None = None
    payload_bytes: int = 0
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    completed: int = 0
    created_unix: float = 0.0
    finished_unix: float | None = None
    error: str | None = None
    error_code: str | None = None
    generation: int | None = None
    submit_seq: int = 0
    cancel_requested: bool = False
    #: monotonic gate for retry backoff (not journaled; recomputed on replay)
    not_before: float = 0.0
    #: weighted-fair virtual finish time, assigned at enqueue
    vtime: float = field(default=0.0, repr=False)

    @property
    def total(self) -> int:
        return len(self.queries)

    @property
    def priority_name(self) -> str:
        return PRIORITY_NAMES[self.priority]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobQueue(Reported):
    """The queued-job set, fair scheduler, and quota ledger.

    Thread-safe; the owning :class:`~repro.jobs.manager.JobManager` holds
    its own lock around compound operations, so this class only guards its
    internal counters.
    """

    FIGURES = (
        Figure("queued", lambda queue: len(queue._queued), "hyper_jobs_queued",
               "Jobs currently queued"),
        Figure("running", lambda queue: sum(queue._running_per_client.values()),
               "hyper_jobs_running", "Leases currently held by executor workers"),
        Figure("clients_queued", lambda queue: dict(queue._queued_per_client)),
        Figure("clients_running", lambda queue: dict(queue._running_per_client)),
        Figure("queued_bytes", lambda queue: dict(queue._queued_bytes_per_client)),
    )

    def __init__(self, quotas: ClientQuotas | None = None):
        self.quotas = quotas or ClientQuotas()
        self._lock = self._figures_lock = threading.Lock()
        self._queued: dict[str, Job] = {}  # job_id → job, insertion-ordered
        self._queued_per_client: dict[str, int] = {}
        self._queued_bytes_per_client: dict[str, int] = {}
        self._running_per_client: dict[str, int] = {}
        self._client_vtime: dict[str, float] = {}
        self._global_vtime = 0.0

    # -- submit ------------------------------------------------------------------------

    def check_quota(self, client_id: str, payload_bytes: int) -> None:
        """Raise :class:`QuotaExceeded` if a submit would bust a budget."""
        quotas = self.quotas
        with self._lock:
            queued = self._queued_per_client.get(client_id, 0)
            if queued >= quotas.max_queued:
                raise QuotaExceeded(
                    f"client {client_id!r} already has {queued} queued job(s) "
                    f"(quota {quotas.max_queued})",
                    quota="max_queued",
                    limit=quotas.max_queued,
                )
            queued_bytes = self._queued_bytes_per_client.get(client_id, 0)
            if queued_bytes + payload_bytes > quotas.max_queued_bytes:
                raise QuotaExceeded(
                    f"client {client_id!r} has {queued_bytes} queued payload "
                    f"byte(s); {payload_bytes} more exceeds the quota "
                    f"{quotas.max_queued_bytes}",
                    quota="max_queued_bytes",
                    limit=quotas.max_queued_bytes,
                )

    def enqueue(self, job: Job, *, enforce_quota: bool = True) -> None:
        """Admit ``job`` to the queued set (quota-checked unless replaying)."""
        if enforce_quota:
            self.check_quota(job.client_id, job.payload_bytes)
        with self._lock:
            floor = max(
                self._global_vtime, self._client_vtime.get(job.client_id, 0.0)
            )
            weight = self.quotas.weight or 1.0
            job.vtime = floor + 1.0 / weight
            self._client_vtime[job.client_id] = job.vtime
            job.state = "queued"
            self._queued[job.job_id] = job
            self._queued_per_client[job.client_id] = (
                self._queued_per_client.get(job.client_id, 0) + 1
            )
            self._queued_bytes_per_client[job.client_id] = (
                self._queued_bytes_per_client.get(job.client_id, 0)
                + job.payload_bytes
            )

    # -- lease -------------------------------------------------------------------------

    def lease(self, *, generation: int, now: float) -> Job | None:
        """The next eligible job by ``(priority, vtime, seq)``, or ``None``.

        A job is eligible when its client is under the running cap, its
        retry backoff has elapsed, and the store has reached its
        ``run_at_generation`` (if any).  Leasing moves the job out of the
        queued set and counts a running lease against its client.
        """
        with self._lock:
            best: Job | None = None
            for job in self._queued.values():
                if job.not_before > now:
                    continue
                if (
                    job.run_at_generation is not None
                    and generation < job.run_at_generation
                ):
                    continue
                running = self._running_per_client.get(job.client_id, 0)
                if running >= self.quotas.max_running:
                    continue
                key = (job.priority, job.vtime, job.submit_seq)
                if best is None or key < (best.priority, best.vtime, best.submit_seq):
                    best = job
            if best is None:
                return None
            self._remove_queued(best)
            self._global_vtime = max(self._global_vtime, best.vtime)
            best.state = "running"
            self._running_per_client[best.client_id] = (
                self._running_per_client.get(best.client_id, 0) + 1
            )
            return best

    def requeue(self, job: Job) -> None:
        """Return a leased job to the queue (retry after a crash/failure)."""
        with self._lock:
            self._release_lease(job)
        self.enqueue(job, enforce_quota=False)

    def finish(self, job: Job) -> None:
        """Drop a leased job's running count (it reached a terminal state)."""
        with self._lock:
            self._release_lease(job)

    def remove(self, job: Job) -> bool:
        """Take a still-queued job out (cancellation). False if not queued."""
        with self._lock:
            if job.job_id not in self._queued:
                return False
            self._remove_queued(job)
            return True

    def _remove_queued(self, job: Job) -> None:
        del self._queued[job.job_id]
        client = job.client_id
        self._queued_per_client[client] = self._queued_per_client.get(client, 1) - 1
        if self._queued_per_client[client] <= 0:
            del self._queued_per_client[client]
        remaining = (
            self._queued_bytes_per_client.get(client, 0) - job.payload_bytes
        )
        if remaining > 0:
            self._queued_bytes_per_client[client] = remaining
        else:
            self._queued_bytes_per_client.pop(client, None)

    def _release_lease(self, job: Job) -> None:
        client = job.client_id
        count = self._running_per_client.get(client, 0) - 1
        if count > 0:
            self._running_per_client[client] = count
        else:
            self._running_per_client.pop(client, None)

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._queued)

    @property
    def running_leases(self) -> int:
        with self._lock:
            return sum(self._running_per_client.values())
