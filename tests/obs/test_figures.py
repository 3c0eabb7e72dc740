"""Each serving figure is declared once, and what is served is what is documented.

Four setups — a threads ``HypeRService``, a ``processes`` service with its
pool started and jobs attached, the async door in front of a service, and a
``ClusterCoordinator`` over two shard nodes — are driven through the same few
calls.  Their wire is pinned as literals: every key path of ``stats()`` (of
``GET /v1/stats`` on the door, ``aserve`` section included) and every
``/v1/metrics`` family with the label names its samples carry.  A key or a
series that moves, appears or goes fails the pin.

The same renders are checked against ``docs/observability.md``'s metrics
table: every family rendered is named there (a ``prefix_*`` row covers its
prefix) and every name the table lists is rendered by one of the setups.
"""

from __future__ import annotations

import http.client
import json
import re
from pathlib import Path

import pytest

from repro import EngineConfig, HypeRService
from repro.api.client import HypeRClient
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.jobs import attach_jobs
from tests.cluster.conftest import make_cluster

QUERIES = [
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit UPDATE(Status) = 2 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
]
CONFIG = EngineConfig(regressor="linear")
DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

_SERIES = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"')


def key_paths(value, prefix: str = "") -> list[str]:
    """Every leaf path of a JSON-shaped value: ``a.b`` into dicts, ``a[]`` into lists."""
    if isinstance(value, dict) and value:
        return [
            path
            for key, item in value.items()
            for path in key_paths(item, f"{prefix}.{key}" if prefix else str(key))
        ]
    if isinstance(value, list) and value:
        return sorted({path for item in value for path in key_paths(item, prefix + "[]")})
    return [prefix]


def families(text: str) -> list[str]:
    """``name{label,...}`` of each family a render declares, with the label
    names its samples carry (a histogram's ``le`` left out)."""
    labels: dict[str, set[str]] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            labels.setdefault(line.split()[2], set())
        elif line and not line.startswith("#"):
            name = _SERIES.match(line).group()
            if name not in labels:
                name = re.sub(r"_(bucket|sum|count)$", "", name)
            labels[name] |= set(_LABEL.findall(line)) - {"le"}
    return sorted(f"{name}{{{','.join(sorted(names))}}}" for name, names in labels.items())


def _drive(backend) -> None:
    backend.execute(QUERIES[0])
    backend.execute_many(QUERIES)
    backend.note_client_request("pin")
    backend.record_rejection("query")


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=11)


@pytest.fixture(scope="module")
def served(dataset, tmp_path_factory) -> dict[str, tuple[dict, str]]:
    """``{setup: (stats, metrics text)}`` of the four setups, driven alike."""
    served: dict[str, tuple[dict, str]] = {}
    with HypeRService(dataset.database, dataset.causal_dag, CONFIG) as service:
        _drive(service)
        served["threads"] = (service.stats(), service.metrics.render())
    with HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, execution="processes", n_shards=2
    ) as service:
        service.start_pool()
        jobs = attach_jobs(service, str(tmp_path_factory.mktemp("jobs") / "journal.jsonl"))
        try:
            _drive(service)
            served["processes"] = (service.stats(), service.metrics.render())
        finally:
            jobs.close()
    with HypeRService(dataset.database, dataset.causal_dag, CONFIG) as service:
        with BackgroundAsyncServer(service, max_inflight=4) as server:
            host, port = server.address
            with HypeRClient(host, port, timeout=60.0, client_id="pin") as client:
                client.query(QUERIES[0])
                client.batch(QUERIES)
                text = client.metrics()
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request("GET", "/v1/stats", headers={"X-Client-Id": "pin"})
                stats = json.loads(connection.getresponse().read())
            finally:
                connection.close()
            served["door"] = (stats, text)
    with make_cluster(dataset.database, dataset.causal_dag, CONFIG, n_shards=2) as cluster:
        coordinator = cluster.coordinator
        _drive(coordinator)
        served["cluster"] = (coordinator.stats(), coordinator.metrics.render())
    return served


#: the pinned wire of each setup: ``stats()`` key paths and metric families
WIRE: dict[str, dict[str, list[str]]] = {
    "threads": {
        "stats": [
            "caches.blocks.evictions", "caches.blocks.hit_rate", "caches.blocks.hits",
            "caches.blocks.max_size", "caches.blocks.misses", "caches.blocks.name",
            "caches.blocks.size", "caches.candidates.evictions",
            "caches.candidates.hit_rate", "caches.candidates.hits",
            "caches.candidates.max_size", "caches.candidates.misses",
            "caches.candidates.name", "caches.candidates.size",
            "caches.estimators.evictions", "caches.estimators.hit_rate",
            "caches.estimators.hits", "caches.estimators.max_size",
            "caches.estimators.max_weight", "caches.estimators.misses",
            "caches.estimators.name", "caches.estimators.size", "caches.estimators.weight",
            "caches.kernels.evictions", "caches.kernels.hit_rate", "caches.kernels.hits",
            "caches.kernels.max_size", "caches.kernels.misses", "caches.kernels.name",
            "caches.kernels.size", "caches.plans.evictions", "caches.plans.hit_rate",
            "caches.plans.hits", "caches.plans.max_size", "caches.plans.misses",
            "caches.plans.name", "caches.plans.size", "caches.results.evictions",
            "caches.results.hit_rate", "caches.results.hits", "caches.results.max_size",
            "caches.results.misses", "caches.results.name", "caches.results.size",
            "caches.views.evictions", "caches.views.hit_rate", "caches.views.hits",
            "caches.views.max_size", "caches.views.misses", "caches.views.name",
            "caches.views.size", "clients.rejections", "clients.requests.pin",
            "clients.tracked", "execution", "generation", "n_batches", "n_queries", "pool",
            "regressors.cached", "regressors.fits", "regressors.hits",
            "relation_generations.Credit", "serving.capacity_hint", "serving.in_flight",
            "serving.latency.batch.count", "serving.latency.batch.seconds",
            "serving.latency.query.count", "serving.latency.query.seconds",
            "serving.peak_in_flight", "serving.rejected.query", "serving.rejected_total",
            "serving.saturation", "slow_queries.entries", "slow_queries.recorded",
            "slow_queries.threshold_seconds", "uptime_seconds", "versions.commits",
            "versions.latest_generation", "versions.live_snapshots",
            "versions.noop_commits", "versions.peak_live_snapshots",
            "versions.peak_pinned_readers", "versions.pinned_fallbacks",
            "versions.pinned_readers", "versions.retired",
        ],
        "metrics": [
            "hyper_batches_total{}", "hyper_cache_entries{cache}",
            "hyper_cache_evictions_total{cache}", "hyper_cache_hits_total{cache}",
            "hyper_cache_misses_total{cache}", "hyper_generation{}",
            "hyper_inflight_peak{}", "hyper_inflight{}", "hyper_mvcc_commits_total{}",
            "hyper_mvcc_live_snapshots{}", "hyper_mvcc_pinned_readers{}",
            "hyper_mvcc_retired_total{}", "hyper_noop_commits_total{}",
            "hyper_pinned_fallbacks_total{}", "hyper_queries_total{}",
            "hyper_rejected_total{endpoint}", "hyper_request_seconds{endpoint}",
            "hyper_slow_queries_total{}", "hyper_uptime_seconds{}",
        ],
    },
    "processes": {
        "stats": [
            "caches.blocks.evictions", "caches.blocks.hit_rate", "caches.blocks.hits",
            "caches.blocks.max_size", "caches.blocks.misses", "caches.blocks.name",
            "caches.blocks.size", "caches.candidates.evictions",
            "caches.candidates.hit_rate", "caches.candidates.hits",
            "caches.candidates.max_size", "caches.candidates.misses",
            "caches.candidates.name", "caches.candidates.size",
            "caches.estimators.evictions", "caches.estimators.hit_rate",
            "caches.estimators.hits", "caches.estimators.max_size",
            "caches.estimators.max_weight", "caches.estimators.misses",
            "caches.estimators.name", "caches.estimators.size", "caches.estimators.weight",
            "caches.kernels.evictions", "caches.kernels.hit_rate", "caches.kernels.hits",
            "caches.kernels.max_size", "caches.kernels.misses", "caches.kernels.name",
            "caches.kernels.size", "caches.plans.evictions", "caches.plans.hit_rate",
            "caches.plans.hits", "caches.plans.max_size", "caches.plans.misses",
            "caches.plans.name", "caches.plans.size", "caches.results.evictions",
            "caches.results.hit_rate", "caches.results.hits", "caches.results.max_size",
            "caches.results.misses", "caches.results.name", "caches.results.size",
            "caches.views.evictions", "caches.views.hit_rate", "caches.views.hits",
            "caches.views.max_size", "caches.views.misses", "caches.views.name",
            "caches.views.size", "clients.rejections", "clients.requests.pin",
            "clients.tracked", "execution", "generation", "jobs.finished", "jobs.jobs",
            "jobs.journal.dropped_on_replay", "jobs.journal.records",
            "jobs.queue.clients_queued", "jobs.queue.clients_running", "jobs.queue.queued",
            "jobs.queue.queued_bytes", "jobs.queue.running", "jobs.replayed_jobs",
            "jobs.results.bytes", "jobs.results.bytes_per_client",
            "jobs.results.evictions", "jobs.results.expirations", "jobs.results.results",
            "jobs.retries", "jobs.submitted", "n_batches", "n_queries",
            "pool.bytes_from_workers", "pool.bytes_to_workers", "pool.fallback_reason",
            "pool.generation", "pool.mode", "pool.n_broadcasts", "pool.n_shards",
            "pool.n_updates", "pool.shm.bytes_created", "pool.shm.live_bytes",
            "pool.shm.live_segments", "pool.shm.segments_created",
            "pool.shm.segments_unlinked", "pool.update_bytes_last", "regressors.cached",
            "regressors.fits", "regressors.hits", "relation_generations.Credit",
            "serving.capacity_hint", "serving.in_flight", "serving.jobs.background_load",
            "serving.jobs.queued", "serving.jobs.result_bytes",
            "serving.jobs.results_retained", "serving.jobs.running",
            "serving.latency.batch.count", "serving.latency.batch.seconds",
            "serving.latency.query.count", "serving.latency.query.seconds",
            "serving.latency.shard_batch.count", "serving.latency.shard_batch.seconds",
            "serving.peak_in_flight", "serving.rejected.query", "serving.rejected_total",
            "serving.saturation", "slow_queries.entries", "slow_queries.recorded",
            "slow_queries.threshold_seconds", "uptime_seconds", "versions.commits",
            "versions.latest_generation", "versions.live_snapshots",
            "versions.noop_commits", "versions.peak_live_snapshots",
            "versions.peak_pinned_readers", "versions.pinned_fallbacks",
            "versions.pinned_readers", "versions.retired",
        ],
        "metrics": [
            "hyper_batches_total{}", "hyper_broadcast_bytes_total{}",
            "hyper_cache_entries{cache}", "hyper_cache_evictions_total{cache}",
            "hyper_cache_hits_total{cache}", "hyper_cache_misses_total{cache}",
            "hyper_generation{}", "hyper_inflight_peak{}", "hyper_inflight{}",
            "hyper_jobs_execution_seconds{}", "hyper_jobs_finished_total{}",
            "hyper_jobs_journal_records{}", "hyper_jobs_queued{}",
            "hyper_jobs_quota_rejections_total{}", "hyper_jobs_result_bytes{}",
            "hyper_jobs_retries_total{}", "hyper_jobs_running{}",
            "hyper_jobs_submitted_total{}", "hyper_mvcc_commits_total{}",
            "hyper_mvcc_live_snapshots{}", "hyper_mvcc_pinned_readers{}",
            "hyper_mvcc_retired_total{}", "hyper_noop_commits_total{}",
            "hyper_pinned_fallbacks_total{}", "hyper_pool_broadcasts_total{}",
            "hyper_pool_shards{}", "hyper_pool_updates_total{}", "hyper_queries_total{}",
            "hyper_rejected_total{endpoint}", "hyper_request_seconds{endpoint}",
            "hyper_shm_bytes{}", "hyper_slow_queries_total{}", "hyper_uptime_seconds{}",
        ],
    },
    "door": {
        "stats": [
            "api_version", "aserve.admission.admitted_total",
            "aserve.admission.decisions.count", "aserve.admission.decisions.max_seconds",
            "aserve.admission.decisions.p50_seconds",
            "aserve.admission.decisions.p99_seconds", "aserve.admission.in_flight",
            "aserve.admission.max_inflight", "aserve.admission.peak_in_flight",
            "aserve.admission.peak_queued", "aserve.admission.queue_depth",
            "aserve.admission.queued", "aserve.admission.rejected_total",
            "aserve.draining", "caches.blocks.evictions", "caches.blocks.hit_rate",
            "caches.blocks.hits", "caches.blocks.max_size", "caches.blocks.misses",
            "caches.blocks.name", "caches.blocks.size", "caches.candidates.evictions",
            "caches.candidates.hit_rate", "caches.candidates.hits",
            "caches.candidates.max_size", "caches.candidates.misses",
            "caches.candidates.name", "caches.candidates.size",
            "caches.estimators.evictions", "caches.estimators.hit_rate",
            "caches.estimators.hits", "caches.estimators.max_size",
            "caches.estimators.max_weight", "caches.estimators.misses",
            "caches.estimators.name", "caches.estimators.size", "caches.estimators.weight",
            "caches.kernels.evictions", "caches.kernels.hit_rate", "caches.kernels.hits",
            "caches.kernels.max_size", "caches.kernels.misses", "caches.kernels.name",
            "caches.kernels.size", "caches.plans.evictions", "caches.plans.hit_rate",
            "caches.plans.hits", "caches.plans.max_size", "caches.plans.misses",
            "caches.plans.name", "caches.plans.size", "caches.results.evictions",
            "caches.results.hit_rate", "caches.results.hits", "caches.results.max_size",
            "caches.results.misses", "caches.results.name", "caches.results.size",
            "caches.views.evictions", "caches.views.hit_rate", "caches.views.hits",
            "caches.views.max_size", "caches.views.misses", "caches.views.name",
            "caches.views.size", "clients.rejections", "clients.requests.pin",
            "clients.tracked", "execution", "generation", "n_batches", "n_queries", "pool",
            "regressors.cached", "regressors.fits", "regressors.hits",
            "relation_generations.Credit", "serving.capacity_hint", "serving.in_flight",
            "serving.latency.query.count", "serving.latency.query.seconds",
            "serving.peak_in_flight", "serving.rejected", "serving.rejected_total",
            "serving.saturation", "slow_queries.entries", "slow_queries.recorded",
            "slow_queries.threshold_seconds", "uptime_seconds", "versions.commits",
            "versions.latest_generation", "versions.live_snapshots",
            "versions.noop_commits", "versions.peak_live_snapshots",
            "versions.peak_pinned_readers", "versions.pinned_fallbacks",
            "versions.pinned_readers", "versions.retired",
        ],
        "metrics": [
            "aserve_admitted_total{}", "aserve_inflight{}", "aserve_queue_wait_seconds{}",
            "aserve_queued{}", "aserve_rejected_total{}", "hyper_batches_total{}",
            "hyper_cache_entries{cache}", "hyper_cache_evictions_total{cache}",
            "hyper_cache_hits_total{cache}", "hyper_cache_misses_total{cache}",
            "hyper_generation{}", "hyper_inflight_peak{}", "hyper_inflight{}",
            "hyper_mvcc_commits_total{}", "hyper_mvcc_live_snapshots{}",
            "hyper_mvcc_pinned_readers{}", "hyper_mvcc_retired_total{}",
            "hyper_noop_commits_total{}", "hyper_pinned_fallbacks_total{}",
            "hyper_queries_total{}", "hyper_rejected_total{}",
            "hyper_request_seconds{endpoint}", "hyper_slow_queries_total{}",
            "hyper_uptime_seconds{}",
        ],
    },
    "cluster": {
        "stats": [
            "clients.rejections", "clients.requests.pin", "clients.tracked",
            "cluster.failovers", "cluster.fallbacks", "cluster.healthy_nodes",
            "cluster.n_nodes", "cluster.n_shards", "cluster.nodes[].failures",
            "cluster.nodes[].generation", "cluster.nodes[].healthy",
            "cluster.nodes[].host", "cluster.nodes[].index", "cluster.nodes[].n_queries",
            "cluster.nodes[].port", "cluster.nodes[].shard",
            "cluster.nodes[].uptime_seconds", "cluster.scatters", "cluster.updates",
            "execution", "generation", "n_batches", "n_queries", "serving.capacity_hint",
            "serving.in_flight", "serving.latency.query.count",
            "serving.latency.query.seconds", "serving.peak_in_flight",
            "serving.rejected.query", "serving.rejected_total", "serving.saturation",
            "slow_queries.entries", "slow_queries.recorded",
            "slow_queries.threshold_seconds", "uptime_seconds",
        ],
        "metrics": [
            "hyper_batches_total{}", "hyper_cluster_failovers_total{}",
            "hyper_cluster_fallbacks_total{}", "hyper_cluster_healthy_nodes{}",
            "hyper_cluster_node_failures_total{}", "hyper_cluster_node_up{node}",
            "hyper_cluster_nodes{}", "hyper_cluster_scatters_total{}",
            "hyper_cluster_updates_total{}", "hyper_generation{}", "hyper_inflight_peak{}",
            "hyper_inflight{}", "hyper_queries_total{}", "hyper_rejected_total{endpoint}",
            "hyper_request_seconds{endpoint}", "hyper_slow_queries_total{}",
            "hyper_uptime_seconds{}",
        ],
    },
}


@pytest.mark.parametrize("setup", ["threads", "processes", "door", "cluster"])
def test_the_wire_is_pinned(served, setup):
    stats, text = served[setup]
    if setup == "processes" and (stats["pool"]["mode"] != "processes" or not stats["pool"]["shm"]):
        pytest.skip("the pool could not start worker processes over shared memory")
    assert sorted(set(key_paths(stats))) == WIRE[setup]["stats"]
    assert families(text) == WIRE[setup]["metrics"]


def test_the_door_attributes_each_query_and_batch_to_its_client(served):
    """The door's ``pin`` sent one ``/v1/query`` and one ``/v1/batch``; its
    scrape and its stats request are not engine requests."""
    stats, _text = served["door"]
    assert stats["clients"]["requests"] == {"pin": 2}
    assert stats["clients"]["rejections"] == {}


def test_the_slow_query_count_is_one_number(dataset):
    """``/v1/slow``, ``stats()`` and ``/v1/metrics`` read the count the log keeps."""
    with HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, slow_query_seconds=0.0
    ) as service:
        _drive(service)
        recorded = service.slow_log.snapshot()["recorded"]
        assert recorded == service.stats()["slow_queries"]["recorded"] == 3
        assert f"hyper_slow_queries_total {recorded}" in service.metrics.render()


def test_a_coordinator_reports_the_shared_head(served):
    """The coordinator renders the head's series and keeps its ``slow_queries``
    section, as a service does over the same ``ServingCounters``."""
    stats, text = served["cluster"]
    assert "hyper_inflight_peak{}" in families(text)
    recorded = re.search(r"^hyper_slow_queries_total (\S+)$", text, re.M)
    assert stats["slow_queries"]["recorded"] == int(float(recorded.group(1)))


def documented_metrics() -> tuple[set[str], set[str]]:
    """The names and the ``prefix_`` prefixes of the metrics table's first column."""
    names: set[str] = set()
    prefixes: set[str] = set()
    in_table = False
    for line in DOCS.read_text().splitlines():
        if line.startswith("| metric |"):
            in_table = True
        elif in_table and not line.startswith("|"):
            break
        elif in_table:
            for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
                name = token.split("{")[0]
                if name.endswith("_*"):
                    prefixes.add(name[:-1])
                elif _SERIES.fullmatch(name):
                    names.add(name)
    return names, prefixes


def test_every_rendered_series_is_documented(served):
    rendered = {
        family.split("{")[0] for _stats, text in served.values() for family in families(text)
    }
    names, prefixes = documented_metrics()
    undocumented = {
        name for name in rendered
        if name not in names and not any(name.startswith(p) for p in prefixes)
    }
    assert not undocumented, f"rendered but not in docs/observability.md: {sorted(undocumented)}"
    assert names <= rendered, f"documented but never rendered: {sorted(names - rendered)}"
    unused = {p for p in prefixes if not any(name.startswith(p) for name in rendered)}
    assert not unused, f"documented prefixes nothing renders: {sorted(unused)}"
