"""Lifecycle tests: SIGTERM drain of ``repro serve``, via real subprocesses.

These spawn ``python -m repro serve``, wait for the listening line, verify
the endpoints answer, send SIGTERM, and assert a clean drained exit — the
contract that keeps shard workers from leaking under process supervisors.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def spawn_serve(*extra_args: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "german-syn", "--rows", "120", "--seed", "1",
            "--regressor", "linear", "--port", "0", *extra_args,
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
    return process, base_url


def terminate_and_collect(process: subprocess.Popen) -> str:
    process.send_signal(signal.SIGTERM)
    try:
        output, _ = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        pytest.fail("server did not exit within 30s of SIGTERM")
    return output


def query(base_url: str, path: str = "/v1/query") -> dict:
    body = json.dumps(
        {
            "query": "USE Credit UPDATE(Status) = 4 "
            "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        }
    ).encode()
    request = urllib.request.Request(
        f"{base_url}{path}", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def test_sigterm_drains_and_exits_cleanly():
    process, base_url = spawn_serve("--max-inflight", "2")
    try:
        with urllib.request.urlopen(f"{base_url}/health", timeout=10) as response:
            assert json.loads(response.read())["status"] == "ok"
        assert query(base_url)["kind"] == "what-if"
        output = terminate_and_collect(process)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 0, output
    assert "draining" in output
    assert "shutdown complete" in output


def test_sigterm_with_process_shards_releases_pool():
    """--execution processes: the drain must close shard workers."""
    process, base_url = spawn_serve("--execution", "processes", "--shards", "2")
    try:
        assert query(base_url, "/query")["kind"] == "what-if"
        output = terminate_and_collect(process)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 0, output
    assert "shutdown complete" in output


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_a_shard_node_and_a_coordinator_answer_and_drain(tmp_path):
    """``repro serve --role shard`` and ``--role coordinator`` over one topology
    file: the coordinator answers through the node, then both drain."""
    config = tmp_path / "cluster.json"
    config.write_text(json.dumps({
        "n_shards": 1,
        "nodes": [{"host": "127.0.0.1", "port": free_port()}],
        "coordinator": {"host": "127.0.0.1", "port": 0},
    }))
    role = ("--cluster-config", str(config), "--role")
    node, _ = spawn_serve(*role, "shard", "--node-index", "0", "--warm-query",
                          "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit))")
    try:
        coordinator, base_url = spawn_serve(*role, "coordinator",
                                            "--jobs-dir", str(tmp_path / "jobs"))
        try:
            assert query(base_url)["kind"] == "what-if"
            with urllib.request.urlopen(f"{base_url}/v1/jobs", timeout=10) as response:
                assert json.loads(response.read())["jobs"] == []  # --jobs-dir attached them
            coordinator_output = terminate_and_collect(coordinator)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
        node_output = terminate_and_collect(node)
    finally:
        if node.poll() is None:
            node.kill()
    assert coordinator.returncode == 0, coordinator_output
    assert "shutdown complete" in coordinator_output
    assert node.returncode == 0, node_output
    assert "shutdown complete" in node_output


def test_a_door_that_cannot_start_releases_its_service():
    """A bad warm query fails the start, and the pool forked for warm-up stops."""
    from repro import EngineConfig, HypeRService
    from repro.aserve import BackgroundAsyncServer
    from repro.datasets import make_german_syn
    from repro.exceptions import QuerySyntaxError

    dataset = make_german_syn(120, seed=1)
    service = HypeRService(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"),
                           execution="processes", n_shards=2)
    with pytest.raises(QuerySyntaxError):
        BackgroundAsyncServer(service, warm_queries=("NOT A QUERY",)).start()
    assert service.stats()["pool"] is None  # no worker left running
