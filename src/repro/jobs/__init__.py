"""Durable asynchronous job service (``docs/jobs.md``; the CasJobs/MyDB
batch-window pattern): heavy queries — Opt-HowTo sweeps, large batches — leave
the synchronous, admission-controlled HTTP slot for a durable per-client fair
queue with its own worker threads, attached by ``repro serve --jobs-dir``.

The durability contract: once ``POST /v1/jobs`` has answered, the job
survives ``kill -9``.  On restart the journal replays to the exact same
terminal state, and results are bitwise-identical to a synchronous
``execute`` of the same queries.  Running leases feed ``serving_signals()``,
so admission sees the background pressure.
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
