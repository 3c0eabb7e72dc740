"""AsyncHypeRClient against a live front door: what only the asyncio transport has.

The cases both clients share (typed answers, error envelopes, batches,
retries, deadlines, the failure matrix) run over both in
``tests/api/test_client.py``; here are the pool, concurrency and generic-JSON
cases.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import EngineConfig, HypeRService
from repro.api import AsyncHypeRClient, HypeRClient
from repro.api.client import TransportError
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.jobs import attach_jobs

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=4)


@pytest.fixture(scope="module")
def server(dataset, tmp_path_factory):
    service = HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )
    attach_jobs(service, str(tmp_path_factory.mktemp("jobs") / "journal.jsonl"))
    with BackgroundAsyncServer(service, max_inflight=4, queue_depth=16) as s:
        yield s
    service.jobs.close()


def run(coro):
    return asyncio.run(coro)


class TestAsyncClient:
    def test_connection_reuse_and_concurrency(self, server):
        async def go():
            async with AsyncHypeRClient(*server.address) as client:
                answers = await asyncio.gather(
                    *(client.query(QUERY_TEXT) for _ in range(6))
                )
                health = await client.health()
                return answers, health

        answers, health = run(go())
        assert len({a.value for a in answers}) == 1
        assert health["status"] == "ok"

    def test_streams_are_read_through_their_end_and_pooled(self, server, monkeypatch):
        # a streamed answer must be read through the chunk terminator before
        # its connection is pooled — else the next call on that connection
        # reads ``0\r\n`` as a status line (``max_retries=0`` makes that fatal)
        opened = []
        open_connection = asyncio.open_connection

        async def counting(*args, **kwargs):
            opened.append(args)
            return await open_connection(*args, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", counting)

        async def go():
            async with AsyncHypeRClient(*server.address, max_retries=0) as client:
                items = await client.batch_collect([QUERY_TEXT, QUERY_TEXT])
                health = await client.health()
                job = await client.submit_job(QUERY_TEXT)
                events = [e async for e in client.job_events(job.job_id, timeout_s=30)]
                status = await client.job(job.job_id)
                return items, health, events, status

        items, health, events, status = run(go())
        assert [item.ok for item in items] == [True, True]
        assert health["status"] == "ok"
        assert events[-1]["done"] and status.state == "succeeded"
        assert len(opened) == 1  # every call rode the one pooled connection

    def test_update_bumps_generation(self, dataset):
        service = HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )
        with BackgroundAsyncServer(service, max_inflight=4) as fresh:

            async def go():
                async with AsyncHypeRClient(*fresh.address) as client:
                    column = [
                        float(v) for v in dataset.database["Credit"].column("Status")
                    ]
                    answer = await client.update({"Credit": {"Status": column}})
                    stats = await client.stats()
                    return answer, stats

            answer, stats = run(go())
            assert answer.generation == 1
            assert stats.generation == 1

    def test_metrics_and_slow_queries(self, server):
        async def go():
            async with AsyncHypeRClient(*server.address) as client:
                await client.query(QUERY_TEXT)
                return await client.metrics(), await client.slow_queries()

        metrics, slow = run(go())
        assert "hyper_queries_total" in metrics
        assert "entries" in slow

    def test_gzip_request_bodies_accepted(self, server):
        async def go():
            # tiny threshold forces the request body through gzip
            async with AsyncHypeRClient(*server.address, gzip_min_bytes=10) as client:
                return await client.query(QUERY_TEXT)

        with HypeRClient(*server.address) as sync_client:
            assert run(go()).value == sync_client.query(QUERY_TEXT).value

    def test_connection_refused_raises_transport_error(self):
        async def go():
            async with AsyncHypeRClient("127.0.0.1", 1, max_retries=1) as client:
                await client.health()

        with pytest.raises(TransportError):
            run(go())

    def test_post_json_generic_endpoint(self, server):
        async def go():
            async with AsyncHypeRClient(*server.address) as client:
                return await client.get_json("/v1/stats")

        assert run(go())["execution"] == "threads"


def test_a_stream_that_arrives_over_time_is_read_as_it_comes(server, dataset):
    """A job waiting on a commit streams its events in several reads; ``wait``
    returns the terminal status."""
    service = server.runner.service
    status = dataset.database["Credit"].column("Status")

    def commit_later():
        time.sleep(0.5)  # after the stream has sent its first events
        service.update_relation_columns({"Credit": {"Status": status}})

    async def go():
        async with AsyncHypeRClient(*server.address) as client:
            job = await client.submit_job(QUERY_TEXT, run_at_generation=service.generation + 1)
            commit = asyncio.get_running_loop().run_in_executor(None, commit_later)
            events = [event async for event in client.job_events(job.job_id, timeout_s=60)]
            await commit
            return events, await client.wait(job.job_id, timeout=60)

    events, final = run(go())
    assert events[-1]["done"] and events[-1]["terminal"] == "succeeded"
    assert final.state == "succeeded"
