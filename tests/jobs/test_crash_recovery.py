"""End-to-end crash recovery: SIGKILL the server mid-job, restart, recover.

The server is a real ``python -m repro serve --jobs-dir`` subprocess.  We
submit a slow batch plus a backlog of queued jobs, wait until the batch's
lease is journaled (``running``), then ``SIGKILL`` the process mid-execution
— no drain, no flush beyond what the journal's fsync discipline guarantees.
A second server over the same ``--jobs-dir`` must replay the journal,
re-lease the crashed batch, run the backlog, and produce results bitwise
identical to the synchronous ``/v1/query`` path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.client import HypeRClient
from repro.api.schemas import QueryRequest

SRC = Path(__file__).resolve().parent.parent.parent / "src"

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
# distinct update constants defeat the result cache (every item really
# executes), and the 4000-row dataset keeps each item around a millisecond —
# together the batch runs long enough for the SIGKILL to land mid-execution
BATCH_QUERIES = [
    f"USE Credit UPDATE(CreditAmount) = {1000 + k} OUTPUT AVG(POST(Credit))"
    for k in range(400)
]


def spawn_serve(jobs_dir: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "german-syn", "--rows", "4000", "--seed", "1",
            "--regressor", "linear", "--port", "0",
            "--jobs-dir", str(jobs_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 90
    base_url = None
    assert process.stdout is not None
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            base_url = line.rsplit(" ", 1)[-1].strip()
            break
    if base_url is None:
        process.kill()
        pytest.fail("server never printed its listening address")
    host, _, port = base_url.rpartition("//")[-1].partition(":")
    return process, host, int(port.rstrip("/"))


def sync_answer_json(client: HypeRClient, text: str) -> dict:
    """The raw ``/v1/query`` answer body — the bitwise comparison target.

    ``runtime_seconds`` is a wall-clock measurement, not part of the answer;
    it is stripped so the remaining fields must match bit for bit.
    """
    body = client.post_json("/v1/query", QueryRequest(query=text).to_json())
    body.pop("runtime_seconds", None)
    return body


def strip_runtime(answer: dict) -> dict:
    out = dict(answer)
    out.pop("runtime_seconds", None)
    return out


def test_sigkill_mid_job_recovers_and_finishes(tmp_path):
    jobs_dir = tmp_path / "jobsdir"
    process, host, port = spawn_serve(jobs_dir)
    client = HypeRClient(host, port, client_id="crash-test", timeout=60.0)
    try:
        batch = client.submit_job(queries=BATCH_QUERIES)
        backlog = [client.submit_job(QUERY_TEXT) for _ in range(3)]
        # Wait until the batch's lease is journaled (state == running) and
        # SIGKILL immediately.  The lease record is fsynced *before* execution
        # starts, and executing the 400-item batch takes orders of magnitude
        # longer than one poll round-trip, so the kill reliably lands after
        # the lease and before the finish record — a crashed lease.
        deadline = time.time() + 120
        while time.time() < deadline:
            status = client.job(batch.job_id)
            if status.terminal:
                pytest.fail(
                    "batch finished before the kill could land mid-execution; "
                    "the batch needs to be slower for this test to mean anything"
                )
            if status.state == "running":
                break
        else:
            pytest.fail("batch job was never leased")
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        client.close()

    # restart over the same journal: everything must reach a terminal state
    process, host, port = spawn_serve(jobs_dir)
    try:
        client = HypeRClient(host, port, client_id="crash-test", timeout=60.0)
        recovered = client.wait(batch.job_id, timeout=300)
        assert recovered.terminal
        assert recovered.state == "succeeded", (recovered.state, recovered.error)
        assert recovered.attempts >= 2  # the crashed lease counted
        for job in backlog:
            done = client.wait(job.job_id, timeout=300)
            assert done.state == "succeeded", (done.state, done.error)

        # results must be bitwise what the synchronous path answers
        payload = client.job_result(batch.job_id)
        assert payload["kind"] == "batch"
        assert len(payload["results"]) == len(BATCH_QUERIES)
        for index in (0, 1, 57, 199, 333, len(BATCH_QUERIES) - 1):
            item = payload["results"][index]
            assert item["index"] == index
            assert strip_runtime(item["result"]) == sync_answer_json(
                client, BATCH_QUERIES[index]
            )
        sync_single = sync_answer_json(client, QUERY_TEXT)
        for job in backlog:
            single = client.job_result(job.job_id)
            assert strip_runtime(single["result"]) == sync_single

        # the journal replay surfaces in the stats endpoint
        stats = client.get_json("/v1/stats")
        assert stats["jobs"]["replayed_jobs"] >= 1
        client.close()
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
