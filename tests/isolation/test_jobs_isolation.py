"""Snapshot-isolation check for the async job path.

Jobs are leased and executed by background workers, so a read's
client-observable window is [submit, result-fetch] — a superset of the true
execution window, which is exactly what the checker's soundness argument
needs.  Racing job-submitting readers against in-process writers must
produce a history with no torn/blended answers: a replayed or re-leased job
executes against one committed generation, never a mix.
"""

from __future__ import annotations

import itertools

from repro.jobs.manager import JobManager

from .checker import check_snapshot_isolation
from .harness import QUERY_TEXT, VersionedWorkload, commit_generation, run_history


class JobsDriver:
    """Reads submit a job and fetch its result; commits hit the service."""

    name = "jobs-direct"

    def __init__(self, manager: JobManager, workload: VersionedWorkload):
        self.manager = manager
        self.workload = workload
        self._session_counter = itertools.count()

    def open_session(self):
        client_id = f"iso-{next(self._session_counter)}"

        def read():
            job = self.manager.submit(
                client_id=client_id, kind="query", queries=[QUERY_TEXT]
            )
            done = self.manager.wait(job.job_id, timeout=120)
            assert done.state == "succeeded", (done.state, done.error)
            payload = self.manager.results.get(job.job_id)
            return float(payload["result"]["value"]), job.job_id

        return read, lambda: None

    def open_writer(self):
        def commit(version: int) -> tuple[str, int]:
            return "", commit_generation(
                self.manager.service, self.workload.databases[version]
            )

        return commit, lambda: None


def test_job_execution_is_snapshot_isolated(tmp_path):
    workload = VersionedWorkload(n_rows=140, n_versions=3, seed=11)
    service = workload.make_service()
    manager = JobManager(
        service, str(tmp_path / "journal.jsonl"), n_workers=3
    ).open()
    try:
        driver = JobsDriver(manager, workload)
        history = run_history(
            driver,
            workload,
            n_readers=4,
            n_writers=2,
            commits_per_writer=4,
            min_reads=8,
            max_reads=30,
            commit_pause=0.05,
            label="jobs-direct seed=11",
        )
        violations = check_snapshot_isolation(history)
        assert not violations, "\n".join(violations)
        assert len(history.reads) >= 32
    finally:
        manager.close()
        service.close()
