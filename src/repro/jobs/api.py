"""The handlers of the ``/v1/jobs`` rows of the endpoint table, and the event
poll the door streams.

:data:`repro.api.endpoints.V1_ENDPOINTS` points five of its six job rows
here; the sixth, the event stream, the door polls through
:func:`poll_events` and closes with :func:`events_done_line`.  Every handler
raises :class:`~repro.api.core.ApiError` for protocol failures; the request
core maps those to envelopes.

The manager is discovered on ``backend.jobs`` — a service started without
``--jobs-dir`` answers 503 ``unavailable`` on the whole surface rather
than 404, so clients can distinguish "not enabled here" from a typo'd
path.

**Ownership.** A job submitted with an explicit ``X-Client-Id`` is scoped
to that id: status/result/events/cancel from any other client id answer
404 ``not_found``, indistinguishable from an unknown id, exactly like
``GET /v1/jobs`` listing.  Jobs submitted *without* the header get a
per-connection ``anon-…`` owner; those stay **capability-based** — the
random job id is the credential — because the door mints a fresh
anonymous id per connection, so an anonymous submitter could otherwise
never poll its own job from a second one.  Ids beginning with ``anon`` are
reserved for that fallback.
"""

from __future__ import annotations

from typing import Any

from ..api.core import ApiError, ApiRequest, ApiResponse, Params
from ..api.schemas import ErrorEnvelope, JobListAnswer, JobStatus, JobSubmitRequest
from ..service.backend import ServiceBackend
from .manager import JobManager, JobNotFound
from .queue import QuotaExceeded

__all__ = [
    "manager_for",
    "submit_job",
    "list_jobs",
    "job_status",
    "job_result",
    "cancel_job",
    "poll_events",
    "events_done_line",
]


def manager_for(backend: ServiceBackend) -> JobManager:
    """The backend's attached :class:`JobManager`, or 503 when jobs are off."""
    manager = backend.jobs
    if manager is None:
        raise ApiError(
            503,
            ErrorEnvelope(
                "unavailable",
                "the job service is not enabled on this server "
                "(start it with --jobs-dir)",
            ),
        )
    return manager


def _status_payload(manager: JobManager, job: Any) -> dict[str, Any]:
    return JobStatus.from_job(
        job, result_available=job.job_id in manager.results
    ).to_json()


def submit_job(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Durably accept a job submit; the 202 body is the initial status.

    A per-client quota violation maps to 429 ``rate_limited`` with the
    violated quota named in the detail, mirroring the admission
    controller's interactive rejections; :func:`~repro.api.core.error_response`
    counts that 429 as the client's request and rejection, so only an
    accepted submit is counted here.
    """
    manager = manager_for(backend)
    body: JobSubmitRequest = request.body
    try:
        job = manager.submit(
            client_id=request.client_id,
            kind=body.kind,
            queries=list(body.all_queries),
            priority=body.priority,
            run_at_generation=body.run_at_generation,
            exhaustive=body.exhaustive,
        )
    except QuotaExceeded as error:
        raise ApiError(
            429,
            ErrorEnvelope(
                "rate_limited",
                str(error),
                {"quota": error.quota, "limit": error.limit},
            ),
        ) from None
    backend.note_client_request(request.client_id)
    return ApiResponse(202, _status_payload(manager, job))


def _anonymous(owner: str) -> bool:
    """True for the door's per-connection fallback ids (``anon``/``anon-…``)."""
    return owner == "anon" or owner.startswith("anon-")


def _get_job(manager: JobManager, job_id: str, client_id: str) -> Any:
    """Look up ``job_id`` and enforce ownership.

    An explicitly-owned job read with the wrong (or no) client id answers
    the same 404 as an unknown id, so probing cannot distinguish "not
    yours" from "never existed".  Anonymously-owned jobs skip the check
    (capability-based; see the module docstring).
    """
    try:
        job = manager.get(job_id)
    except JobNotFound:
        job = None
    if job is None or (
        not _anonymous(job.client_id) and client_id != job.client_id
    ):
        raise ApiError(404, ErrorEnvelope("not_found", f"unknown job {job_id!r}"))
    return job


def job_status(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Answer ``GET /v1/jobs/{id}``; unknown, aged-out, or foreign ids are 404."""
    manager = manager_for(backend)
    job = _get_job(manager, params["id"], request.client_id)
    return ApiResponse(200, _status_payload(manager, job))


def job_result(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Answer ``GET /v1/jobs/{id}/result``.

    A job that is still in flight answers 404 ``not_found``; a terminal job
    whose result was evicted or expired answers 404 with the distinct code
    ``result_expired`` so callers know re-submitting is the only way back.
    """
    manager = manager_for(backend)
    job_id = params["id"]
    job = _get_job(manager, job_id, request.client_id)
    payload = manager.results.get(job_id)
    if payload is not None:
        return ApiResponse(200, payload)
    if job.terminal:
        if job.state == "succeeded":
            raise ApiError(
                404,
                ErrorEnvelope(
                    "result_expired",
                    f"the result of job {job_id!r} is no longer retained",
                ),
            )
        detail: dict[str, Any] = {"state": job.state}
        if job.error_code is not None:
            detail["error_code"] = job.error_code
        raise ApiError(
            404,
            ErrorEnvelope(
                "not_found",
                f"job {job_id!r} finished {job.state!r} without a result"
                + (f": {job.error}" if job.error else ""),
                detail,
            ),
        )
    raise ApiError(
        404,
        ErrorEnvelope(
            "not_found",
            f"job {job_id!r} is still {job.state!r}; poll its status or "
            "stream its events",
            {"state": job.state},
        ),
    )


def cancel_job(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Answer ``POST /v1/jobs/{id}/cancel``: the post-cancel status.

    Cancelling a queued job is immediate, a running job cooperative, and a
    terminal job a no-op — the call is always safe to retry.
    """
    manager = manager_for(backend)
    _get_job(manager, params["id"], request.client_id)
    return ApiResponse(200, _status_payload(manager, manager.cancel(params["id"])))


def list_jobs(backend: ServiceBackend, request: ApiRequest, params: Params) -> ApiResponse:
    """Answer ``GET /v1/jobs``: the calling client's jobs, oldest first."""
    backend.note_client_request(request.client_id)
    manager = manager_for(backend)
    statuses = tuple(
        JobStatus.from_job(job, result_available=job.job_id in manager.results)
        for job in manager.list_jobs(request.client_id)
    )
    return ApiResponse(200, JobListAnswer(jobs=statuses).to_json())


# -- event streams ---------------------------------------------------------------------


def poll_events(
    backend: ServiceBackend, job_id: str, cursor: int, *, client_id: str
) -> tuple[list[dict[str, Any]], bool]:
    """One non-blocking poll of a job's event log (the door's unit)."""
    manager = manager_for(backend)
    _get_job(manager, job_id, client_id)
    try:
        return manager.events_since(job_id, cursor)
    except JobNotFound:
        raise ApiError(
            404, ErrorEnvelope("not_found", f"unknown job {job_id!r}")
        ) from None


def events_done_line(backend: ServiceBackend, job_id: str) -> dict[str, Any]:
    """The closing line of an event stream.

    ``terminal`` names the job's terminal state, or is ``null`` when the
    stream timed out first (or the job aged out mid-stream).
    """
    try:
        job = manager_for(backend).get(job_id)
    except JobNotFound:
        job = None
    terminal = job.state if job is not None and job.terminal else None
    return {"done": True, "job_id": job_id, "terminal": terminal}
