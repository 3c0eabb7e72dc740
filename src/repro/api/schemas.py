"""Versioned (v1) wire schemas of the public HypeR API.

Every byte that crosses the HTTP boundary — requests, answers, error bodies,
stats, NDJSON batch lines — is produced and consumed through the typed
dataclasses in this module.  The rules:

* **One version string.** Every payload carries ``"api_version": "v1"``.
  Additive evolution (new optional fields) stays within ``v1``; renaming or
  removing a field requires ``v2`` side-by-side.  Golden fixtures under
  ``tests/api/fixtures/`` pin the exact serialized forms so accidental wire
  changes fail CI.
* **Strict codecs.** ``from_json`` validates types, rejects unknown fields
  and wrong versions with :class:`WireFormatError`; ``to_json`` emits plain
  JSON-serializable dicts with stable field names and ordering.
* **No behavior.** Schemas never touch the engine; converters *from* engine
  result objects (:meth:`WhatIfAnswer.from_result` etc.) only read public
  attributes, so any duck-typed result works.

The error body is flat and backwards compatible: ``{"error": <message>,
"code": <machine code>, "detail": {...}?}`` — legacy clients keep reading
``body["error"]`` as a string while v1 clients dispatch on ``code``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..exceptions import HypeRError

__all__ = [
    "API_VERSION",
    "WireFormatError",
    "QueryRequest",
    "BatchRequest",
    "UpdateRequest",
    "UpdateAnswer",
    "WhatIfAnswer",
    "HowToAnswer",
    "TraceSpan",
    "BatchItem",
    "ErrorEnvelope",
    "StatsSnapshot",
    "PrepareRequest",
    "PrepareAnswer",
    "JobSubmitRequest",
    "JobStatus",
    "JobListAnswer",
    "answer_from_result",
    "answer_from_json",
    "number_column",
    "update_assignments",
]

#: the current wire-schema version; embedded in every payload
API_VERSION = "v1"


class WireFormatError(HypeRError):
    """A JSON payload violates the v1 wire schema."""


# -- strict decoding helpers -----------------------------------------------------------


def _require_object(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise WireFormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, Any], allowed: set[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise WireFormatError(f"{what} has unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _check_version(data: Mapping[str, Any], what: str) -> None:
    version = data.get("api_version", API_VERSION)
    if version != API_VERSION:
        raise WireFormatError(
            f"{what} declares api_version {version!r}; this library speaks {API_VERSION!r}"
        )


def _get_str(data: Mapping[str, Any], key: str, what: str) -> str:
    value = data.get(key)
    if not isinstance(value, str):
        raise WireFormatError(f'{what} must contain a "{key}" string')
    return value


def _get_bool(data: Mapping[str, Any], key: str, what: str, default: bool = False) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise WireFormatError(f'{what} field "{key}" must be a boolean')
    return value


def _get_int(data: Mapping[str, Any], key: str, what: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(f'{what} field "{key}" must be an integer')
    return value


def _get_float(data: Mapping[str, Any], key: str, what: str) -> float:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f'{what} field "{key}" must be a number')
    return float(value)


# -- requests --------------------------------------------------------------------------


def _get_deadline_ms(data: Mapping[str, Any], what: str) -> int | None:
    """Optional positive ``deadline_ms`` budget (additive v1 field)."""
    value = data.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(f'{what} field "deadline_ms" must be an integer')
    if value <= 0:
        raise WireFormatError(f'{what} field "deadline_ms" must be positive')
    return value


@dataclass(frozen=True)
class QueryRequest:
    """Body of ``POST /v1/query``: one query in the SQL extension.

    ``deadline_ms`` is the caller's remaining time budget: a server that
    cannot start executing before it runs out answers a ``deadline_exceeded``
    envelope instead of computing a doomed answer, and a relaying front door
    (the cluster coordinator) forwards the *decremented* remainder downstream.
    """

    query: str
    exhaustive: bool = False
    deadline_ms: int | None = None

    _FIELDS = {"api_version", "query", "exhaustive", "deadline_ms"}

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "query": self.query,
            "exhaustive": self.exhaustive,
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out

    @classmethod
    def from_json(cls, data: Any) -> "QueryRequest":
        data = _require_object(data, "query request")
        _reject_unknown(data, cls._FIELDS, "query request")
        _check_version(data, "query request")
        return cls(
            query=_get_str(data, "query", "query request"),
            exhaustive=_get_bool(data, "exhaustive", "query request"),
            deadline_ms=_get_deadline_ms(data, "query request"),
        )


@dataclass(frozen=True)
class BatchRequest:
    """Body of ``POST /v1/batch``: many queries, answered concurrently.

    ``deadline_ms`` covers the whole batch; queries that would start after
    the budget ran out answer per-item ``deadline_exceeded`` envelopes.
    """

    queries: tuple[str, ...]
    deadline_ms: int | None = None

    _FIELDS = {"api_version", "queries", "deadline_ms"}

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "queries": list(self.queries),
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out

    @classmethod
    def from_json(cls, data: Any) -> "BatchRequest":
        data = _require_object(data, "batch request")
        _reject_unknown(data, cls._FIELDS, "batch request")
        _check_version(data, "batch request")
        queries = data.get("queries")
        if not isinstance(queries, list) or not all(isinstance(q, str) for q in queries):
            raise WireFormatError('batch request must contain a "queries" list of strings')
        return cls(
            queries=tuple(queries),
            deadline_ms=_get_deadline_ms(data, "batch request"),
        )


@dataclass(frozen=True)
class UpdateRequest:
    """Body of ``POST /v1/update``: overwrite whole columns atomically.

    ``assignments`` maps relation name → attribute name → the full column of
    new values (one number per row, in row order).  All named columns commit
    as **one** database generation: concurrent queries answer either entirely
    from the pre-update snapshot or entirely from the post-update one, never
    a blend (see ``docs/service.md``, "Updates & isolation").
    """

    assignments: Mapping[str, Mapping[str, tuple[float, ...]]]

    _FIELDS = {"api_version", "assignments"}

    def to_json(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "assignments": {
                relation: {attribute: list(values) for attribute, values in columns.items()}
                for relation, columns in self.assignments.items()
            },
        }

    @classmethod
    def from_json(cls, data: Any) -> "UpdateRequest":
        data = _require_object(data, "update request")
        _reject_unknown(data, cls._FIELDS, "update request")
        _check_version(data, "update request")
        return cls(assignments=update_assignments(data.get("assignments"), number_column))


def update_assignments(assignments: Any, column: Callable[[Any, str], Any]) -> dict:
    """``{relation: {attribute: column(values, "relation.attribute")}}`` of a
    non-empty object of non-empty objects keyed by strings; ``column`` decodes one."""
    if not isinstance(assignments, Mapping) or not assignments:
        raise WireFormatError('update request must contain a non-empty "assignments" object')
    decoded: dict[str, dict[str, Any]] = {}
    for relation, columns in assignments.items():
        if not isinstance(relation, str):
            raise WireFormatError("update request relation names must be strings")
        if not isinstance(columns, Mapping) or not columns:
            raise WireFormatError(
                f"update request assignments for relation {relation!r} must be "
                "a non-empty object of attribute -> values"
            )
        decoded[relation] = {}
        for attribute, values in columns.items():
            if not isinstance(attribute, str):
                raise WireFormatError(
                    f"update request attribute names of relation {relation!r} must be strings"
                )
            decoded[relation][attribute] = column(values, f"{relation}.{attribute}")
    return decoded


def number_column(values: Any, column: str) -> tuple[float, ...]:
    """One overwritten column as floats: a list of numbers, and a bool is not one."""
    # sniff the set of types, not every value: a column holds a handful
    if not isinstance(values, list) or not all(
        issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))
    ):
        raise WireFormatError(f"update request column {column} must be a list of numbers")
    return tuple(map(float, values))


# -- trace spans -----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpan:
    """One node of a request's span tree (``?trace=1`` answers).

    ``duration_ms`` is a monotonic-clock duration; spans carry durations
    rather than absolute timestamps so coordinator and shard-worker clocks
    never mix.  ``meta`` holds span-specific annotations (the root span's
    meta carries ``request_id``); ``children`` are the spans opened while
    this one was current, in start order.
    """

    name: str
    duration_ms: float
    meta: Mapping[str, Any] | None = None
    children: tuple["TraceSpan", ...] = ()

    _FIELDS = {"name", "duration_ms", "meta", "children"}

    def to_json(self) -> dict[str, Any]:
        body: dict[str, Any] = {"name": self.name, "duration_ms": self.duration_ms}
        if self.meta is not None:
            body["meta"] = dict(self.meta)
        body["children"] = [child.to_json() for child in self.children]
        return body

    @classmethod
    def from_json(cls, data: Any) -> "TraceSpan":
        data = _require_object(data, "trace span")
        _reject_unknown(data, cls._FIELDS, "trace span")
        meta = data.get("meta")
        if meta is not None and not isinstance(meta, Mapping):
            raise WireFormatError('trace span field "meta" must be an object')
        children = data.get("children", [])
        if not isinstance(children, list):
            raise WireFormatError('trace span field "children" must be a list')
        return cls(
            name=_get_str(data, "name", "trace span"),
            duration_ms=_get_float(data, "duration_ms", "trace span"),
            meta=dict(meta) if meta is not None else None,
            children=tuple(cls.from_json(child) for child in children),
        )


def _decode_optional_trace(data: Mapping[str, Any], what: str) -> "TraceSpan | None":
    raw = data.get("trace")
    if raw is None:
        return None
    return TraceSpan.from_json(raw)


# -- answers ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateAnswer:
    """Wire form of a commit outcome: the new generation and what changed.

    ``changed`` lists the relations whose generation counter was bumped by
    this commit; when it is empty the commit was a no-op and ``generation``
    reports the (unchanged) current generation.
    """

    generation: int
    changed: tuple[str, ...]
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = None

    KIND = "update"
    _FIELDS = {"api_version", "kind", "generation", "changed", "trace"}

    @property
    def noop(self) -> bool:
        return not self.changed

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "generation": self.generation,
            "changed": sorted(self.changed),
        }
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out

    @classmethod
    def from_json(cls, data: Any) -> "UpdateAnswer":
        data = _require_object(data, "update answer")
        _reject_unknown(data, cls._FIELDS, "update answer")
        _check_version(data, "update answer")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'update answer must declare "kind": "{cls.KIND}"')
        changed = data.get("changed")
        if not isinstance(changed, list) or not all(isinstance(c, str) for c in changed):
            raise WireFormatError('update answer field "changed" must be a string list')
        return cls(
            generation=_get_int(data, "generation", "update answer"),
            changed=tuple(changed),
            trace=_decode_optional_trace(data, "update answer"),
        )


@dataclass(frozen=True)
class WhatIfAnswer:
    """Wire form of a what-if answer (:class:`repro.core.results.WhatIfResult`)."""

    value: float
    aggregate: str
    output_attribute: str
    variant: str
    n_scope_tuples: int
    n_blocks: int
    backdoor_set: tuple[str, ...]
    runtime_seconds: float
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = None

    KIND = "what-if"
    _FIELDS = {
        "api_version",
        "kind",
        "value",
        "aggregate",
        "output_attribute",
        "variant",
        "n_scope_tuples",
        "n_blocks",
        "backdoor_set",
        "runtime_seconds",
        "trace",
    }

    @classmethod
    def from_result(cls, result: Any) -> "WhatIfAnswer":
        return cls(
            value=float(result.value),
            aggregate=result.aggregate,
            output_attribute=result.output_attribute,
            variant=result.variant,
            n_scope_tuples=int(result.n_scope_tuples),
            n_blocks=int(result.n_blocks),
            backdoor_set=tuple(result.backdoor_set),
            runtime_seconds=float(result.runtime_seconds),
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "value": self.value,
            "aggregate": self.aggregate,
            "output_attribute": self.output_attribute,
            "variant": self.variant,
            "n_scope_tuples": self.n_scope_tuples,
            "n_blocks": self.n_blocks,
            "backdoor_set": list(self.backdoor_set),
            "runtime_seconds": self.runtime_seconds,
        }
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out

    @classmethod
    def from_json(cls, data: Any) -> "WhatIfAnswer":
        data = _require_object(data, "what-if answer")
        _reject_unknown(data, cls._FIELDS, "what-if answer")
        _check_version(data, "what-if answer")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'what-if answer must declare "kind": "{cls.KIND}"')
        backdoor = data.get("backdoor_set")
        if not isinstance(backdoor, list) or not all(isinstance(a, str) for a in backdoor):
            raise WireFormatError('what-if answer field "backdoor_set" must be a string list')
        return cls(
            value=_get_float(data, "value", "what-if answer"),
            aggregate=_get_str(data, "aggregate", "what-if answer"),
            output_attribute=_get_str(data, "output_attribute", "what-if answer"),
            variant=_get_str(data, "variant", "what-if answer"),
            n_scope_tuples=_get_int(data, "n_scope_tuples", "what-if answer"),
            n_blocks=_get_int(data, "n_blocks", "what-if answer"),
            backdoor_set=tuple(backdoor),
            runtime_seconds=_get_float(data, "runtime_seconds", "what-if answer"),
            trace=_decode_optional_trace(data, "what-if answer"),
        )


@dataclass(frozen=True)
class HowToAnswer:
    """Wire form of a how-to answer (:class:`repro.core.results.HowToResult`)."""

    objective_value: float
    baseline_value: float
    maximize: bool
    plan: Mapping[str, str]
    solver_status: str
    runtime_seconds: float
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = None

    KIND = "how-to"
    _FIELDS = {
        "api_version",
        "kind",
        "objective_value",
        "baseline_value",
        "maximize",
        "plan",
        "solver_status",
        "runtime_seconds",
        "trace",
    }

    @classmethod
    def from_result(cls, result: Any) -> "HowToAnswer":
        return cls(
            objective_value=float(result.objective_value),
            baseline_value=float(result.baseline_value),
            maximize=bool(result.maximize),
            plan={str(k): str(v) for k, v in result.plan().items()},
            solver_status=result.solver_status,
            runtime_seconds=float(result.runtime_seconds),
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "objective_value": self.objective_value,
            "baseline_value": self.baseline_value,
            "maximize": self.maximize,
            "plan": dict(self.plan),
            "solver_status": self.solver_status,
            "runtime_seconds": self.runtime_seconds,
        }
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        return out

    @classmethod
    def from_json(cls, data: Any) -> "HowToAnswer":
        data = _require_object(data, "how-to answer")
        _reject_unknown(data, cls._FIELDS, "how-to answer")
        _check_version(data, "how-to answer")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'how-to answer must declare "kind": "{cls.KIND}"')
        plan = data.get("plan")
        if not isinstance(plan, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in plan.items()
        ):
            raise WireFormatError('how-to answer field "plan" must map strings to strings')
        return cls(
            objective_value=_get_float(data, "objective_value", "how-to answer"),
            baseline_value=_get_float(data, "baseline_value", "how-to answer"),
            maximize=_get_bool(data, "maximize", "how-to answer"),
            plan=dict(plan),
            solver_status=_get_str(data, "solver_status", "how-to answer"),
            runtime_seconds=_get_float(data, "runtime_seconds", "how-to answer"),
            trace=_decode_optional_trace(data, "how-to answer"),
        )


Answer = WhatIfAnswer | HowToAnswer


def answer_from_result(result: Any) -> Answer:
    """Convert an engine result object into its typed wire answer."""
    if hasattr(result, "objective_value"):
        return HowToAnswer.from_result(result)
    return WhatIfAnswer.from_result(result)


def answer_from_json(data: Any) -> Answer:
    """Strictly decode an answer payload, dispatching on its ``kind``."""
    data = _require_object(data, "answer")
    kind = data.get("kind")
    if kind == WhatIfAnswer.KIND:
        return WhatIfAnswer.from_json(data)
    if kind == HowToAnswer.KIND:
        return HowToAnswer.from_json(data)
    raise WireFormatError(f"answer has unknown kind {kind!r}")


# -- errors ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorEnvelope:
    """The one error body the door speaks, on every endpoint.

    ``code`` is a stable machine-readable slug (``bad_request``,
    ``query_syntax``, ``query_semantics``, ``payload_too_large``,
    ``rate_limited``, ``not_found``, ``internal``); ``message`` is
    human-readable; ``detail`` carries structured extras (caret position of a
    syntax error, retry hints).  Serialized flat so legacy consumers keep
    reading ``body["error"]`` as a plain string.
    """

    code: str
    message: str
    detail: Mapping[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        body: dict[str, Any] = {"error": self.message, "code": self.code}
        if self.detail is not None:
            body["detail"] = dict(self.detail)
        return body

    @classmethod
    def from_json(cls, data: Any) -> "ErrorEnvelope":
        # deliberately tolerant of extra fields: endpoints may decorate the
        # envelope (e.g. a top-level retry_after on 429 bodies)
        data = _require_object(data, "error body")
        message = _get_str(data, "error", "error body")
        code = data.get("code")
        if code is not None and not isinstance(code, str):
            raise WireFormatError('error body field "code" must be a string')
        detail = data.get("detail")
        if detail is not None and not isinstance(detail, Mapping):
            raise WireFormatError('error body field "detail" must be an object')
        return cls(code=code or "error", message=message, detail=detail)


# -- batch lines -----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One per-query outcome of a batch: either an answer or an error envelope."""

    index: int
    result: Answer | None = None
    error: ErrorEnvelope | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_json(self) -> dict[str, Any]:
        if (self.result is None) == (self.error is None):
            raise WireFormatError("a batch item carries exactly one of result/error")
        if self.result is not None:
            return {"index": self.index, "result": self.result.to_json()}
        return {"index": self.index, **self.error.to_json()}

    @classmethod
    def from_json(cls, data: Any) -> "BatchItem":
        data = _require_object(data, "batch item")
        index = _get_int(data, "index", "batch item")
        if "result" in data:
            return cls(index=index, result=answer_from_json(data["result"]))
        return cls(index=index, error=ErrorEnvelope.from_json(data))


# -- stats -----------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsSnapshot:
    """Typed wrapper of ``GET /v1/stats``.

    The core counters are first-class fields; instrumentation sections whose
    layout belongs to other subsystems (``caches``, ``serving``, ``pool``,
    the async front-end's ``aserve``) pass through as mappings — their inner
    shape is documented by those subsystems, and new sections are additive.
    """

    generation: int
    execution: str
    n_queries: int
    n_batches: int
    uptime_seconds: float
    relation_generations: Mapping[str, int] = field(default_factory=dict)
    caches: Mapping[str, Any] = field(default_factory=dict)
    serving: Mapping[str, Any] = field(default_factory=dict)
    regressors: Mapping[str, Any] = field(default_factory=dict)
    #: MVCC counters (commits, retired, noop_commits, pinned_fallbacks, ...)
    versions: Mapping[str, Any] | None = None
    pool: Mapping[str, Any] | None = None
    sections: Mapping[str, Any] = field(default_factory=dict)

    _KNOWN = {
        "api_version",
        "generation",
        "execution",
        "n_queries",
        "n_batches",
        "uptime_seconds",
        "relation_generations",
        "caches",
        "serving",
        "regressors",
        "versions",
        "pool",
    }

    @classmethod
    def from_service_stats(cls, stats: Mapping[str, Any]) -> "StatsSnapshot":
        """Wrap :meth:`HypeRService.stats` output (extra keys become sections)."""
        return cls(
            generation=int(stats["generation"]),
            execution=str(stats["execution"]),
            n_queries=int(stats["n_queries"]),
            n_batches=int(stats["n_batches"]),
            uptime_seconds=float(stats["uptime_seconds"]),
            relation_generations=dict(stats.get("relation_generations", {})),
            caches=dict(stats.get("caches", {})),
            serving=dict(stats.get("serving", {})),
            regressors=dict(stats.get("regressors", {})),
            versions=stats.get("versions"),
            pool=stats.get("pool"),
            sections={k: v for k, v in stats.items() if k not in cls._KNOWN},
        )

    def to_json(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "api_version": API_VERSION,
            "generation": self.generation,
            "execution": self.execution,
            "n_queries": self.n_queries,
            "n_batches": self.n_batches,
            "uptime_seconds": self.uptime_seconds,
            "relation_generations": dict(self.relation_generations),
            "caches": dict(self.caches),
            "serving": dict(self.serving),
            "regressors": dict(self.regressors),
            "versions": self.versions,
            "pool": self.pool,
        }
        for name, section in self.sections.items():
            body[name] = section
        return body

    @classmethod
    def from_json(cls, data: Any) -> "StatsSnapshot":
        data = _require_object(data, "stats snapshot")
        _check_version(data, "stats snapshot")
        return cls(
            generation=_get_int(data, "generation", "stats snapshot"),
            execution=_get_str(data, "execution", "stats snapshot"),
            n_queries=_get_int(data, "n_queries", "stats snapshot"),
            n_batches=_get_int(data, "n_batches", "stats snapshot"),
            uptime_seconds=_get_float(data, "uptime_seconds", "stats snapshot"),
            relation_generations=dict(data.get("relation_generations", {})),
            caches=dict(data.get("caches", {})),
            serving=dict(data.get("serving", {})),
            regressors=dict(data.get("regressors", {})),
            versions=data.get("versions"),
            pool=data.get("pool"),
            sections={k: v for k, v in data.items() if k not in cls._KNOWN},
        )


# -- prepare ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepareRequest:
    """Body of ``POST /v1/prepare``: warm plans/estimators before real traffic.

    Every query is planned and its estimator fitted under one pinned
    snapshot; nothing is answered.  Clients call this before heavy sweeps so
    the first real request hits hot caches, and the job executor can warm a
    cold node the same way.
    """

    queries: tuple[str, ...]

    _FIELDS = {"api_version", "queries"}

    def to_json(self) -> dict[str, Any]:
        return {"api_version": API_VERSION, "queries": list(self.queries)}

    @classmethod
    def from_json(cls, data: Any) -> "PrepareRequest":
        data = _require_object(data, "prepare request")
        _reject_unknown(data, cls._FIELDS, "prepare request")
        _check_version(data, "prepare request")
        queries = data.get("queries")
        if (
            not isinstance(queries, list)
            or not queries
            or not all(isinstance(q, str) for q in queries)
        ):
            raise WireFormatError(
                'prepare request must contain a non-empty "queries" list of strings'
            )
        return cls(queries=tuple(queries))


@dataclass(frozen=True)
class PrepareAnswer:
    """Answer of ``POST /v1/prepare``."""

    KIND = "prepare"

    prepared: int
    generation: int

    _FIELDS = {"api_version", "kind", "prepared", "generation"}

    def to_json(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "prepared": self.prepared,
            "generation": self.generation,
        }

    @classmethod
    def from_json(cls, data: Any) -> "PrepareAnswer":
        data = _require_object(data, "prepare answer")
        _reject_unknown(data, cls._FIELDS, "prepare answer")
        _check_version(data, "prepare answer")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'prepare answer must have kind "{cls.KIND}"')
        return cls(
            prepared=_get_int(data, "prepared", "prepare answer"),
            generation=_get_int(data, "generation", "prepare answer"),
        )


# -- jobs ------------------------------------------------------------------------------

#: job priorities on the wire (scheduling order: high before normal before low)
JOB_PRIORITIES = ("high", "normal", "low")

#: job lifecycle states (terminal: succeeded / failed / cancelled)
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")


@dataclass(frozen=True)
class JobSubmitRequest:
    """Body of ``POST /v1/jobs``: one query or a batch, as a durable job.

    Exactly one of ``query``/``queries`` must be present.  ``priority``
    orders the job against the client's other work; ``run_at_generation``
    defers execution until the store has committed at least that generation
    (a writer can submit analysis jobs that must see its own commit).
    """

    query: str | None = None
    queries: tuple[str, ...] | None = None
    priority: str = "normal"
    run_at_generation: int | None = None
    exhaustive: bool = False

    _FIELDS = {
        "api_version",
        "query",
        "queries",
        "priority",
        "run_at_generation",
        "exhaustive",
    }

    @property
    def kind(self) -> str:
        return "query" if self.query is not None else "batch"

    @property
    def all_queries(self) -> tuple[str, ...]:
        if self.query is not None:
            return (self.query,)
        return self.queries or ()

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"api_version": API_VERSION, "priority": self.priority}
        if self.query is not None:
            out["query"] = self.query
        else:
            out["queries"] = list(self.queries or ())
        if self.run_at_generation is not None:
            out["run_at_generation"] = self.run_at_generation
        if self.exhaustive:
            out["exhaustive"] = self.exhaustive
        return out

    @classmethod
    def from_json(cls, data: Any) -> "JobSubmitRequest":
        data = _require_object(data, "job submit request")
        _reject_unknown(data, cls._FIELDS, "job submit request")
        _check_version(data, "job submit request")
        query = data.get("query")
        queries = data.get("queries")
        if (query is None) == (queries is None):
            raise WireFormatError(
                'job submit request must contain exactly one of "query"/"queries"'
            )
        if query is not None and not isinstance(query, str):
            raise WireFormatError('job submit request field "query" must be a string')
        if queries is not None and (
            not isinstance(queries, list)
            or not queries
            or not all(isinstance(q, str) for q in queries)
        ):
            raise WireFormatError(
                'job submit request field "queries" must be a non-empty list of strings'
            )
        priority = data.get("priority", "normal")
        if priority not in JOB_PRIORITIES:
            raise WireFormatError(
                f'job submit request field "priority" must be one of {JOB_PRIORITIES}'
            )
        run_at = data.get("run_at_generation")
        if run_at is not None and (
            isinstance(run_at, bool) or not isinstance(run_at, int) or run_at < 0
        ):
            raise WireFormatError(
                'job submit request field "run_at_generation" must be a '
                "non-negative integer"
            )
        return cls(
            query=query,
            queries=tuple(queries) if queries is not None else None,
            priority=priority,
            run_at_generation=run_at,
            exhaustive=_get_bool(data, "exhaustive", "job submit request"),
        )


@dataclass(frozen=True)
class JobStatus:
    """Typed status answer of the job endpoints (kind ``"job"``).

    ``result_available`` says whether ``GET /v1/jobs/{id}/result`` would
    answer right now — a succeeded job's result can age out of the retention
    store while its terminal status survives.
    """

    KIND = "job"

    job_id: str
    client_id: str
    state: str
    kind: str
    priority: str
    completed: int
    total: int
    attempts: int
    max_attempts: int
    created_unix: float
    finished_unix: float | None = None
    generation: int | None = None
    run_at_generation: int | None = None
    error: str | None = None
    error_code: str | None = None
    result_available: bool = False

    _FIELDS = {
        "api_version",
        "kind",
        "job_id",
        "client_id",
        "state",
        "job_kind",
        "priority",
        "progress",
        "attempts",
        "max_attempts",
        "created_unix",
        "finished_unix",
        "generation",
        "run_at_generation",
        "error",
        "error_code",
        "result_available",
    }

    @property
    def terminal(self) -> bool:
        return self.state in ("succeeded", "failed", "cancelled")

    @classmethod
    def from_job(cls, job: Any, *, result_available: bool) -> "JobStatus":
        """Wrap a :class:`repro.jobs.queue.Job` (duck-typed: attributes only)."""
        return cls(
            job_id=job.job_id,
            client_id=job.client_id,
            state=job.state,
            kind=job.kind,
            priority=job.priority_name,
            completed=job.completed,
            total=job.total,
            attempts=job.attempts,
            max_attempts=job.max_attempts,
            created_unix=job.created_unix,
            finished_unix=job.finished_unix,
            generation=job.generation,
            run_at_generation=job.run_at_generation,
            error=job.error,
            error_code=job.error_code,
            result_available=result_available,
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "job_id": self.job_id,
            "client_id": self.client_id,
            "state": self.state,
            "job_kind": self.kind,
            "priority": self.priority,
            "progress": {"completed": self.completed, "total": self.total},
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "created_unix": self.created_unix,
            "result_available": self.result_available,
        }
        if self.finished_unix is not None:
            out["finished_unix"] = self.finished_unix
        if self.generation is not None:
            out["generation"] = self.generation
        if self.run_at_generation is not None:
            out["run_at_generation"] = self.run_at_generation
        if self.error is not None:
            out["error"] = self.error
        if self.error_code is not None:
            out["error_code"] = self.error_code
        return out

    @classmethod
    def from_json(cls, data: Any) -> "JobStatus":
        data = _require_object(data, "job status")
        _reject_unknown(data, cls._FIELDS, "job status")
        _check_version(data, "job status")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'job status must have kind "{cls.KIND}"')
        state = _get_str(data, "state", "job status")
        if state not in JOB_STATES:
            raise WireFormatError(f"job status has unknown state {state!r}")
        progress = data.get("progress")
        if not isinstance(progress, Mapping):
            raise WireFormatError('job status field "progress" must be an object')
        finished = data.get("finished_unix")
        if finished is not None and not isinstance(finished, (int, float)):
            raise WireFormatError('job status field "finished_unix" must be a number')
        return cls(
            job_id=_get_str(data, "job_id", "job status"),
            client_id=_get_str(data, "client_id", "job status"),
            state=state,
            kind=_get_str(data, "job_kind", "job status"),
            priority=_get_str(data, "priority", "job status"),
            completed=_get_int(progress, "completed", "job status progress"),
            total=_get_int(progress, "total", "job status progress"),
            attempts=_get_int(data, "attempts", "job status"),
            max_attempts=_get_int(data, "max_attempts", "job status"),
            created_unix=_get_float(data, "created_unix", "job status"),
            finished_unix=float(finished) if finished is not None else None,
            generation=data.get("generation"),
            run_at_generation=data.get("run_at_generation"),
            error=data.get("error"),
            error_code=data.get("error_code"),
            result_available=_get_bool(data, "result_available", "job status"),
        )


@dataclass(frozen=True)
class JobListAnswer:
    """Answer of ``GET /v1/jobs``: the calling client's jobs, oldest first."""

    KIND = "job-list"

    jobs: tuple[JobStatus, ...]

    _FIELDS = {"api_version", "kind", "jobs", "total"}

    def to_json(self) -> dict[str, Any]:
        return {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "jobs": [status.to_json() for status in self.jobs],
            "total": len(self.jobs),
        }

    @classmethod
    def from_json(cls, data: Any) -> "JobListAnswer":
        data = _require_object(data, "job list")
        _reject_unknown(data, cls._FIELDS, "job list")
        _check_version(data, "job list")
        if data.get("kind") != cls.KIND:
            raise WireFormatError(f'job list must have kind "{cls.KIND}"')
        raw_jobs = data.get("jobs")
        if not isinstance(raw_jobs, list):
            raise WireFormatError('job list must contain a "jobs" list')
        return cls(jobs=tuple(JobStatus.from_json(item) for item in raw_jobs))
