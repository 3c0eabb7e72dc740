"""The HTTP door under concurrent load, plus overload.

Drives real ``repro serve`` subprocesses (the door of :mod:`repro.aserve`)
with N concurrent keep-alive clients — the production-shaped run through the
v1 :class:`repro.api.HypeRClient` SDK, plus one raw-``http.client`` run to
price the SDK — over the warm German-Syn 4000 repeated-template what-if
suite (N defaults to 32; ``BENCH_ASYNC_CLIENTS`` overrides — CI smoke uses
16), and asserts the serving acceptance criteria:

* the **p99 admission decision** (read from the async server's own
  ``/stats`` reservoir) is **< 50 ms**;
* when offered load exceeds ``max_inflight + queue_depth``, excess requests
  get **429** — never connection resets, never queueing beyond the
  configured depth (asserted via ``peak_queued``);
* every accepted answer is **bitwise identical** to direct
  ``HypeRService.execute`` (JSON float round-trips are exact for finite
  doubles).

One throughput ratio is **reported, not asserted** — it is one wall-clock
race between two runs on a shared host: the client SDK over raw sockets on
the same warm server (``client_over_raw``).  It lands in the printed payload
and, with the rest, in ``BENCH_async.json`` for the CI artifact.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.conftest import fmt, print_table
from repro import EngineConfig, HypeRService
from repro.api import HypeRClient
from repro.datasets import make_german_syn
from repro.obs.metrics import validate_exposition

N_ROWS = 4_000
SEED = 7
N_CLIENTS = int(os.environ.get("BENCH_ASYNC_CLIENTS", "32"))
REQUESTS_PER_CLIENT = 15
N_TEMPLATES = 16

_ROOT = Path(__file__).resolve().parent.parent
_RESULTS_PATH = _ROOT / "BENCH_async.json"
#: Prometheus text scraped from the loaded async server; CI's metrics-smoke
#: step re-validates these bytes and the artifact keeps them inspectable
_METRICS_PATH = _ROOT / "BENCH_metrics.prom"

QUERY_TEXTS = [
    f"USE Credit UPDATE(Status) = {value} "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
    for value in range(1, N_TEMPLATES + 1)
]
#: distinct parameter variants of a *second* template, uncached at overload
#: time, so every overload request does real work instead of a cache hit
OVERLOAD_TEXTS = [
    f"USE Credit UPDATE(Status) = {value} "
    "OUTPUT AVG(POST(CreditAmount)) FOR POST(Credit) = 1"
    for value in range(1, 65)
]


def spawn_serve(*extra_args: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "german-syn", "--rows", str(N_ROWS), "--seed", str(SEED),
            "--regressor", "linear", "--port", "0", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 180
    assert process.stdout is not None
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("server exited before listening")
        if "listening on http://" in line:
            address = line.rsplit("http://", 1)[-1].strip()
            host, port = address.split(":")
            return process, host, int(port)
    process.kill()
    raise RuntimeError("server never printed its listening address")


def stop_serve(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - defensive
        process.kill()
        process.communicate()


def post_query(
    conn: http.client.HTTPConnection, text: str, retries: int = 4
) -> tuple[int, dict, http.client.HTTPConnection, int]:
    """POST /query, reopening the connection (with backoff) if it was dropped.

    Returns the retry count so the load run can report how hard the client
    had to work.
    """
    body = json.dumps({"query": text}).encode()
    for attempt in range(retries + 1):
        try:
            conn.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read()), conn, attempt
        except (http.client.HTTPException, ConnectionError, OSError):
            if attempt == retries:
                raise
            conn.close()
            time.sleep(0.005 * (2**attempt))
            conn = http.client.HTTPConnection(conn.host, conn.port, timeout=60)
    raise AssertionError("unreachable")


def run_load(host: str, port: int, n_clients: int) -> dict:
    """N keep-alive clients, each issuing the repeated-template suite."""
    answers: list[tuple[str, float]] = []
    failures: list[str] = []
    latencies: list[float] = []
    retries = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def client(offset: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        barrier.wait()
        for i in range(REQUESTS_PER_CLIENT):
            text = QUERY_TEXTS[(offset + i) % len(QUERY_TEXTS)]
            started = time.perf_counter()
            try:
                status, payload, conn, attempts = post_query(conn, text)
            except Exception as error:  # noqa: BLE001 - recorded, fails the bench
                with lock:
                    failures.append(f"{type(error).__name__}: {error}")
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                retries[0] += attempts
                if status == 200:
                    answers.append((text, payload["value"]))
                else:
                    failures.append(f"HTTP {status}: {payload}")
        conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies.sort()
    return {
        "seconds": elapsed,
        "n_requests": len(answers),
        "qps": len(answers) / elapsed if elapsed else 0.0,
        "p99_request_seconds": latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0,
        "retries": retries[0],
        "answers": answers,
        "failures": failures,
    }


def run_load_sdk(host: str, port: int, n_clients: int) -> dict:
    """The same suite through :class:`HypeRClient` (one SDK client per thread).

    The SDK adds schema encode/decode, typed answers and retry plumbing on
    top of the raw socket; this run prices that overhead.
    """
    answers: list[tuple[str, float]] = []
    failures: list[str] = []
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def client_run(offset: int) -> None:
        with HypeRClient(host, port, timeout=60.0, max_retries=4) as client:
            barrier.wait()
            for i in range(REQUESTS_PER_CLIENT):
                text = QUERY_TEXTS[(offset + i) % len(QUERY_TEXTS)]
                started = time.perf_counter()
                try:
                    answer = client.query(text)
                except Exception as error:  # noqa: BLE001 - recorded, fails the bench
                    with lock:
                        failures.append(f"{type(error).__name__}: {error}")
                    return
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    answers.append((text, answer.value))

    threads = [threading.Thread(target=client_run, args=(k,)) for k in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies.sort()
    return {
        "seconds": elapsed,
        "n_requests": len(answers),
        "qps": len(answers) / elapsed if elapsed else 0.0,
        "p99_request_seconds": latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0,
        "answers": answers,
        "failures": failures,
    }


def warm(host: str, port: int, texts: list[str]) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=120)
    for text in texts:
        status, payload, conn, _ = post_query(conn, text)
        assert status == 200, payload
    conn.close()


def scrape_metrics(host: str, port: int) -> str:
    """GET /v1/metrics; the bytes must already be valid exposition format."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("GET", "/v1/metrics")
    response = conn.getresponse()
    text = response.read().decode("utf-8")
    conn.close()
    assert response.status == 200, text[:200]
    assert response.getheader("Content-Type", "").startswith("text/plain")
    validate_exposition(text)
    return text


def parse_samples(text: str) -> dict[str, float]:
    """Flat ``{series: value}`` from exposition text (for scrape deltas)."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)
    return samples


def get_stats(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("GET", "/stats")
    response = conn.getresponse()
    payload = json.loads(response.read())
    conn.close()
    return payload


def run_overload(host: str, port: int, n_clients: int) -> dict:
    """Fire n_clients simultaneous uncached requests at a tiny-capacity server."""
    statuses: list[int] = []
    resets: list[str] = []
    values: list[tuple[str, float]] = []
    retry_headers: list[str | None] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients)

    def client(index: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        text = OVERLOAD_TEXTS[index % len(OVERLOAD_TEXTS)]
        barrier.wait()
        try:
            conn.request(
                "POST", "/query",
                body=json.dumps({"query": text}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        except Exception as error:  # noqa: BLE001 - a reset fails the bench
            with lock:
                resets.append(f"{type(error).__name__}: {error}")
            return
        with lock:
            statuses.append(response.status)
            if response.status == 200:
                values.append((text, payload["value"]))
            elif response.status == 429:
                # collected here, asserted in the main thread (a failed
                # assert inside a worker would vanish into excepthook)
                retry_headers.append(response.getheader("Retry-After"))
        conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "statuses": statuses,
        "resets": resets,
        "values": values,
        "retry_headers": retry_headers,
    }


def test_async_load():
    # ground truth: direct HypeRService execution on the same dataset/config
    dataset = make_german_syn(N_ROWS, seed=SEED)
    direct = HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )
    expected = {text: direct.execute(text).value for text in QUERY_TEXTS}
    expected.update({text: direct.execute(text).value for text in OVERLOAD_TEXTS})

    # -- ample capacity: measure throughput, not rejection ---------------------------
    # raw http.client sockets first, then the HypeRClient SDK on the same
    # warm server: the delta is the SDK's overhead
    process, host, port = spawn_serve(
        "--max-inflight", "8", "--queue-depth", str(max(64, 4 * N_CLIENTS)),
        "--warm-query", QUERY_TEXTS[0],
    )
    try:
        warm(host, port, QUERY_TEXTS)
        metrics_before = parse_samples(scrape_metrics(host, port))
        asynchronous = run_load(host, port, N_CLIENTS)
        sdk = run_load_sdk(host, port, N_CLIENTS)
        stats = get_stats(host, port)
        metrics_text = scrape_metrics(host, port)
    finally:
        stop_serve(process)
    metrics_after = parse_samples(metrics_text)
    metrics_delta = {
        series: metrics_after[series] - metrics_before.get(series, 0.0)
        for series in sorted(metrics_after)
        if metrics_after[series] != metrics_before.get(series, 0.0)
    }
    _METRICS_PATH.write_text(metrics_text)
    assert not asynchronous["failures"], asynchronous["failures"][:5]
    assert not sdk["failures"], sdk["failures"][:5]
    client_over_raw = sdk["qps"] / asynchronous["qps"] if asynchronous["qps"] else 0.0
    admission = stats["aserve"]["admission"]
    decision_p99 = admission["decisions"]["p99_seconds"]

    # -- overload: offered load exceeds max_inflight + queue_depth -------------------
    process, host, port = spawn_serve(
        "--max-inflight", "2", "--queue-depth", "2",
        "--warm-query", OVERLOAD_TEXTS[0],
    )
    try:
        overload = run_overload(host, port, N_CLIENTS)
        overload_stats = get_stats(host, port)
    finally:
        stop_serve(process)

    # -- report ----------------------------------------------------------------------
    rows = [
        [
            "raw sockets",
            fmt(asynchronous["seconds"]),
            fmt(asynchronous["qps"], 1),
            fmt(asynchronous["p99_request_seconds"] * 1e3, 1),
            asynchronous["retries"],
        ],
        [
            "HypeRClient SDK",
            fmt(sdk["seconds"]),
            fmt(sdk["qps"], 1),
            fmt(sdk["p99_request_seconds"] * 1e3, 1),
            0,
        ],
    ]
    print_table(
        f"The door — {N_CLIENTS} concurrent clients x "
        f"{REQUESTS_PER_CLIENT} queries (German-Syn {N_ROWS}, warm)",
        ["client", "total s", "q/s", "p99 ms", "client retries"],
        rows,
    )
    n_accepted = overload["statuses"].count(200)
    n_rejected = overload["statuses"].count(429)
    print(
        f"admission decisions: p50 {admission['decisions']['p50_seconds'] * 1e6:.0f} us, "
        f"p99 {decision_p99 * 1e6:.0f} us over {admission['decisions']['count']} decisions"
    )
    print(
        f"overload (capacity 4, {N_CLIENTS} simultaneous): "
        f"{n_accepted} accepted, {n_rejected} rejected with 429, "
        f"{len(overload['resets'])} resets, "
        f"peak queue {overload_stats['aserve']['admission']['peak_queued']}"
    )
    print(
        f"HypeRClient SDK overhead: {sdk['qps']:.1f} q/s vs "
        f"{asynchronous['qps']:.1f} q/s raw ({client_over_raw:.2f}x)"
    )

    mismatches = [
        (text, value, expected[text])
        for text, value in (
            asynchronous["answers"]
            + sdk["answers"]
            + overload["values"]
        )
        if value != expected[text]
    ]

    payload = {
        "dataset": f"german-syn-{N_ROWS}",
        "n_clients": N_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "async_qps": asynchronous["qps"],
        "client_qps": sdk["qps"],
        "client_over_raw": client_over_raw,
        "client_p99_request_seconds": sdk["p99_request_seconds"],
        "async_p99_request_seconds": asynchronous["p99_request_seconds"],
        "admission_decision_p99_seconds": decision_p99,
        "admission_decisions": admission["decisions"]["count"],
        "overload_accepted": n_accepted,
        "overload_rejected_429": n_rejected,
        "overload_resets": len(overload["resets"]),
        "overload_peak_queued": overload_stats["aserve"]["admission"]["peak_queued"],
        "overload_rejected_total_stat": overload_stats["serving"]["rejected_total"],
        "n_bitwise_mismatches": len(mismatches),
        #: /v1/metrics scrape delta across the raw + SDK load runs
        "metrics_delta": metrics_delta,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {_RESULTS_PATH.name} and {_METRICS_PATH.name}")

    # -- acceptance criteria ---------------------------------------------------------
    assert not mismatches, mismatches[:3]
    # every accepted query crossed the counter exactly once while loaded
    assert metrics_delta.get("hyper_queries_total") == (
        asynchronous["n_requests"] + sdk["n_requests"]
    ), metrics_delta
    assert decision_p99 < 0.05, payload
    assert n_accepted + n_rejected == N_CLIENTS
    assert not overload["resets"], overload["resets"][:5]
    assert n_rejected >= 1, payload  # offered 32 vs capacity 4: excess rejected
    assert len(overload["retry_headers"]) == n_rejected
    assert all(
        header is not None and int(header) >= 1
        for header in overload["retry_headers"]
    ), overload["retry_headers"]
    assert overload_stats["aserve"]["admission"]["peak_queued"] <= 2  # bounded queue
    assert overload_stats["serving"]["rejected_total"] == n_rejected
