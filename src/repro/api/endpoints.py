"""The declarative ``/v1/*`` endpoint table.

The HTTP door (:mod:`repro.aserve`) mounts exactly this table over the
sans-IO request core of :mod:`repro.api.core` — a cluster shard node mounts
it plus its two internal rows — so routing, legacy aliases, error envelopes
and the 400/413/429 semantics are defined once.

``docs/api.md``'s endpoint table is rendered from :data:`V1_ENDPOINTS` by
``python -m tests.doctables``; the schemas are in :mod:`repro.api.schemas`.
Each row carries its ``handler(backend, request, params) -> ApiResponse`` — none for
the two streaming rows, which the door streams itself — and a constant
*lane*, so **adding an endpoint is one table row plus one handler** and the
door does not change.  The door routes (:meth:`RouteTable.match`), then runs
:func:`~repro.api.core.decode` and :func:`~repro.api.core.run` with
admission between them.  A lane says where the door may run the handler:

``loop``
    answers from memory without taking locks — inline on the event loop.
``control``
    must land even on a saturated server (commits, stats, scrapes): the
    door's single auxiliary thread, bypassing admission.
``blocking``
    may wait on a lock or an fsync (the job surface): the executor pool,
    never the loop; throttled by per-client quotas, not by admission.
``admitted``
    engine work: one admission unit per query, run on the executor pool.

Aliases answer byte-identically to their canonical path.  This module knows
nothing about sockets; every name of :mod:`repro.api.core` is re-exported so
the door needs one import.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..jobs import api as jobs_api
from ..obs import trace as obs_trace
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..service.backend import ServiceBackend
from . import core
from .core import *  # noqa: F401,F403 - one namespace for the door (see docstring)
from .schemas import (
    API_VERSION,
    BatchRequest,
    JobSubmitRequest,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
)

__all__ = [
    *core.__all__,
    "METRICS_CONTENT_TYPE",
    "V1_ENDPOINTS",
    "V1_ROUTES",
    "RouteTable",
    "execute_one",
    "batch_line",
    "batch_done_line",
]

# -- handlers --------------------------------------------------------------------------


def _health(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    return ApiResponse(
        200,
        {"status": "ok", "generation": backend.generation, "api_version": API_VERSION},
    )


def _stats(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    return ApiResponse(200, StatsSnapshot.from_service_stats(backend.stats()).to_json())


def _metrics(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """The backend's registry in Prometheus text form."""
    return ApiResponse(200, backend.metrics.render(), content_type=METRICS_CONTENT_TYPE)


def _slow(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """The bounded slow-query log, worst offender first."""
    return ApiResponse(200, {"api_version": API_VERSION, **backend.slow_log.snapshot()})


def execute_one(
    backend: ServiceBackend,
    query: Any,
    *,
    deadline: RequestDeadline | None = None,
    **kwargs: Any,
) -> Any:
    """Run one query under its remaining budget (exceptions bubble).

    An expired ``deadline`` answers 504 ``deadline_exceeded`` instead of
    computing a doomed answer; a relaying backend (the cluster coordinator)
    receives the deadline and decrements it across its downstream hops.
    """
    if deadline is not None:
        deadline.check()
        if backend.accepts_deadline:
            kwargs["deadline"] = deadline
    return backend.execute(query, **kwargs)


def _query(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Run one query; with ``?trace=1`` the answer embeds the finished span
    tree under ``"trace"`` (serialization itself is the last span)."""
    body: QueryRequest = request.body
    trace = request.trace
    if trace is None:
        result = execute_one(
            backend, body.query, deadline=request.deadline, exhaustive=body.exhaustive
        )
        return ApiResponse(200, result.payload())
    result = execute_one(
        backend,
        body.query,
        deadline=request.deadline,
        exhaustive=body.exhaustive,
        trace=trace,
    )
    with obs_trace.activate(trace), obs_trace.span("serialize"):
        payload = result.payload()
    payload["trace"] = trace.to_wire()
    return ApiResponse(200, payload)


def batch_line(index: int, outcome: Any) -> dict[str, Any]:
    """One NDJSON line of a streamed batch: an answer or a per-query envelope."""
    if isinstance(outcome, BaseException):
        _status, envelope = envelope_for(outcome)
        return {"index": index, **envelope.to_json()}
    return {"index": index, "result": outcome.payload()}


def batch_done_line(n_queries: int) -> dict[str, Any]:
    """The closing NDJSON line of a streamed batch."""
    return {"done": True, "n_queries": n_queries}


def _update(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Commit an ``UpdateRequest`` as one MVCC generation.

    Unknown relations/attributes and length mismatches surface as engine
    exceptions and map to 400 through :func:`envelope_for`; in-flight queries
    keep their pinned snapshot and are not paused.  The
    answer acknowledges the generation this commit installed
    (:class:`~repro.service.versions.Commit`), never a racing writer's.
    """
    body: UpdateRequest = request.body
    assignments = {
        relation: dict(columns) for relation, columns in body.assignments.items()
    }
    with obs_trace.activate(request.trace), obs_trace.span("update"):
        commit = backend.update_relation_columns(assignments)
    payload = UpdateAnswer(generation=commit.generation, changed=tuple(commit)).to_json()
    if request.trace is not None:
        payload["trace"] = request.trace.to_wire()
    return ApiResponse(200, payload)


def _prepare(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Warm plans and estimators for the request's queries; answer counts only.

    Bad queries surface as engine exceptions and map through
    :func:`envelope_for` like any other request — preparing is strict, so a
    typo is caught before a client queues an hour of jobs behind it.
    """
    body: PrepareRequest = request.body
    prepared = backend.prepare(list(body.queries))
    count = len(prepared) if isinstance(prepared, list) else len(body.queries)
    return ApiResponse(
        200, PrepareAnswer(prepared=count, generation=int(backend.generation)).to_json()
    )


# -- the endpoint table ----------------------------------------------------------------

V1_ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint("health", "GET", "/v1/health", _health, "loop", aliases=("/health",),
             help='`{"status": "ok", "generation": N, "api_version": "v1"}`; '
             '`503 {"status": "draining"}` while the door drains'),
    Endpoint("stats", "GET", "/v1/stats", _stats, "control", aliases=("/stats",),
             help='`StatsSnapshot`: counters, caches, serving signals (the door adds '
             '`"aserve"`)'),
    Endpoint("metrics", "GET", "/v1/metrics", _metrics, "control", aliases=("/metrics",),
             help="Prometheus text exposition (not JSON)"),
    Endpoint("slow", "GET", "/v1/slow", _slow, "control",
             help="the slow-query log, worst offender first"),
    Endpoint("query", "POST", "/v1/query", _query, "admitted", aliases=("/query",),
             schema=QueryRequest, help="`WhatIfAnswer` or `HowToAnswer`"),
    Endpoint("batch", "POST", "/v1/batch", None, "admitted", aliases=("/batch",),
             schema=BatchRequest, help="NDJSON, one line per query in completion "
             'order; an empty batch answers `{"results": [], "n_queries": 0}`'),
    Endpoint("update", "POST", "/v1/update", _update, "control", schema=UpdateRequest,
             help="`UpdateAnswer`: the generation this one MVCC commit installed"),
    Endpoint("prepare", "POST", "/v1/prepare", _prepare, "control", schema=PrepareRequest,
             help="`PrepareAnswer`: plans and estimators warmed, nothing executed"),
    Endpoint("jobs_submit", "POST", "/v1/jobs", jobs_api.submit_job, "blocking",
             schema=JobSubmitRequest, help="`202` and the `JobStatus`, once journaled"),
    Endpoint("jobs_list", "GET", "/v1/jobs", jobs_api.list_jobs, "blocking",
             help="`JobListAnswer`: the calling `X-Client-Id`'s jobs"),
    Endpoint("job_status", "GET", "/v1/jobs/{id}", jobs_api.job_status, "blocking",
             help="`JobStatus`"),
    Endpoint("job_events", "GET", "/v1/jobs/{id}/events", None, "blocking",
             help="NDJSON progress events, polled by cursor; last line "
             '`{"done": true, "terminal": <state>}`'),
    Endpoint("job_result", "GET", "/v1/jobs/{id}/result", jobs_api.job_result, "blocking",
             help="the retained result (bitwise the sync answers); "
             "`404 result_expired` after its TTL"),
    Endpoint("job_cancel", "POST", "/v1/jobs/{id}/cancel", jobs_api.cancel_job, "blocking",
             help="`JobStatus`: at once while queued, cooperative while running, "
             "a no-op when terminal"),
)


class RouteTable:
    """Method + path → endpoint row, over any set of rows.

    The door mounts :data:`V1_ROUTES`; a cluster shard node mounts the
    public rows plus its two internal ones.
    """

    def __init__(self, endpoints: Iterable[Endpoint]) -> None:
        self.endpoints = tuple(endpoints)
        self._exact: dict[tuple[str, str], Endpoint] = {}
        #: parameterized routes: (method, path segments) — "{x}" segments bind
        self._patterns: list[tuple[str, tuple[str, ...], Endpoint]] = []
        for endpoint in self.endpoints:
            for path in endpoint.paths:
                if "{" in path:
                    self._patterns.append(
                        (endpoint.method, tuple(path.split("/")), endpoint)
                    )
                else:
                    self._exact[(endpoint.method, path)] = endpoint

    def match(self, method: str, path: str) -> tuple[Endpoint, dict[str, str]] | None:
        """Route ``method path``, binding any ``{param}`` segments.

        Exact (and alias) paths win; otherwise parameterized rows match when
        every literal segment is equal and every ``{param}`` segment is
        non-empty.  Returns ``(endpoint, params)`` or ``None``.
        """
        endpoint = self._exact.get((method, path))
        if endpoint is not None:
            return endpoint, {}
        parts = tuple(path.split("/"))
        for pattern_method, segments, pattern_endpoint in self._patterns:
            if pattern_method != method or len(segments) != len(parts):
                continue
            params: dict[str, str] = {}
            for segment, part in zip(segments, parts):
                if segment.startswith("{") and segment.endswith("}"):
                    if not part:
                        break
                    params[segment[1:-1]] = part
                elif segment != part:
                    break
            else:
                return pattern_endpoint, params
        return None


V1_ROUTES = RouteTable(V1_ENDPOINTS)
