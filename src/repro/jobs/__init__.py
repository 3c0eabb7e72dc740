"""Durable asynchronous job service (the CasJobs/MyDB batch-window pattern).

Heavy queries — Opt-HowTo sweeps, large batches — are the wrong fit for a
synchronous HTTP slot guarded by admission control.  This package moves them
to a durable queue with its own scheduler:

- :mod:`.journal` — append-only JSONL write-ahead journal (fsync group
  commit, per-record checksums, replay-on-restart, compaction);
- :mod:`.queue` — per-client weighted fair priority queue with quotas on
  queued jobs, running leases, and queued payload bytes;
- :mod:`.executor` — background workers that lease jobs, execute them
  against a :class:`~repro.service.session.HypeRService` or
  :class:`~repro.cluster.coordinator.ClusterCoordinator`, checkpoint
  progress, honor cancellation, and retry crashed leases with exponential
  backoff;
- :mod:`.results` — bounded per-client result store with TTL retention and
  a GC sweeper;
- :mod:`.manager` — :class:`JobManager`, the façade tying them together;
- :mod:`.api` — the handlers of the ``/v1/jobs`` rows of the HTTP door.

The durability contract: once ``POST /v1/jobs`` has answered, the job
survives ``kill -9``.  On restart the journal replays to the exact same
terminal state, and results are bitwise-identical to a synchronous
``execute`` of the same queries.
"""

from .journal import Journal, JournalError, JournalRecord
from .manager import JobManager, attach_jobs
from .queue import ClientQuotas, JobQueue, QuotaExceeded
from .results import ResultStore

__all__ = [
    "ClientQuotas",
    "Journal",
    "JournalError",
    "JournalRecord",
    "JobManager",
    "JobQueue",
    "QuotaExceeded",
    "ResultStore",
    "attach_jobs",
]
