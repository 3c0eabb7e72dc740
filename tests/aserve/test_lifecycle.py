"""Lifecycle tests: SIGTERM drain of ``repro serve``, via real subprocesses.

These spawn ``python -m repro serve``, wait for the listening line, verify
the endpoints answer, send SIGTERM, and assert a clean drained exit — the
contract that keeps shard workers from leaking under process supervisors.
"""

from __future__ import annotations

import json
import os
import signal
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
