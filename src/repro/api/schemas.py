"""Versioned (v1) wire schemas of the public HypeR API.

Every byte that crosses the HTTP boundary — requests, answers, error bodies,
stats, NDJSON batch lines — is produced and consumed through the typed
dataclasses in this module.  The rules:

* **One version string.** Every payload carries ``"api_version": "v1"``.
  Additive evolution (new optional fields) stays within ``v1``; renaming or
  removing a field requires ``v2`` side-by-side.  Golden fixtures under
  ``tests/api/fixtures/`` pin the exact serialized forms so accidental wire
  changes fail CI.
* **Strict codecs, declared once.** Each wire field is declared once on its
  dataclass, ``_wire(kind, key=..., omit=...)``, and :class:`_Schema` derives
  ``to_json`` (keys in declaration order) and ``from_json`` from the
  declarations.  ``from_json`` rejects a non-object, unknown fields, a wrong
  ``api_version`` or answer ``kind`` and a field of the wrong type with
  :class:`WireFormatError`, ``<what> field "<key>" must be <noun>``; a field
  whose default is ``None`` accepts ``null``.  The error envelope, a batch
  line and the job list keep hand-written codecs: their wire form is not a
  field list.
* **No behavior.** Schemas never touch the engine; converters *from* engine
  result objects (:meth:`WhatIfAnswer.from_result` etc.) only read public
  attributes, so any duck-typed result works.

The error body is flat and backwards compatible: ``{"error": <message>,
"code": <machine code>, "detail": {...}?}`` — legacy clients keep reading
``body["error"]`` as a string while v1 clients dispatch on ``code``.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, TypeVar

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


# -- field kinds -----------------------------------------------------------------------

#: what a kind's decoder returns for a value of the wrong JSON type
_BAD = object()


class _Kind(NamedTuple):
    """The JSON type of a wire field: its name in messages and its two codecs."""

    noun: str
    #: wire value -> attribute value, or ``_BAD``
    decode: Callable[[Any], Any]
    #: attribute value -> wire value (``None``: written as is)
    encode: Callable[[Any], Any] | None = None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _strings(value: Any) -> Any:
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return tuple(value)
    return _BAD


def _one_of(options: tuple[str, ...]) -> _Kind:
    return _Kind(f"one of {options}", lambda v: v if v in options else _BAD)


def _nested(noun: str, schema: str, *, many: bool = False) -> _Kind:
    """A nested schema (``many``: a list of them), looked up by class name
    when decoding so a schema can nest itself."""

    def decode(value: Any) -> Any:
        decoder = globals()[schema].from_json
        if not many:
            return decoder(value) if isinstance(value, Mapping) else _BAD
        if isinstance(value, list) and all(isinstance(item, Mapping) for item in value):
            return tuple(decoder(item) for item in value)
        return _BAD

    if many:
        return _Kind(noun, decode, lambda items: [item.to_json() for item in items])
    return _Kind(noun, decode, lambda item: item.to_json())


_STRING = _Kind("a string", lambda v: v if isinstance(v, str) else _BAD)
_BOOLEAN = _Kind("a boolean", lambda v: v if isinstance(v, bool) else _BAD)
_INTEGER = _Kind("an integer", lambda v: v if _is_int(v) else _BAD)
_POSITIVE = _Kind("a positive integer", lambda v: v if _is_int(v) and v > 0 else _BAD)
_NON_NEGATIVE = _Kind("a non-negative integer", lambda v: v if _is_int(v) and v >= 0 else _BAD)
_NUMBER = _Kind("a number", lambda v: float(v) if _is_int(v) or isinstance(v, float) else _BAD)
_STRINGS = _Kind("a list of strings", _strings, list)
_NON_EMPTY_STRINGS = _Kind(
    "a non-empty list of strings", lambda v: _strings(v) if v else _BAD, list
)
_OBJECT = _Kind("an object", lambda v: dict(v) if isinstance(v, Mapping) else _BAD, dict)
_STRING_MAP = _Kind(
    "an object of strings",
    lambda v: dict(v)
    if isinstance(v, Mapping)
    and all(isinstance(k, str) and isinstance(s, str) for k, s in v.items())
    else _BAD,
    dict,
)
_TRACE = _nested("a trace span", "TraceSpan")


def _decode(kind: _Kind, value: Any, what: str, key: str) -> Any:
    decoded = kind.decode(value)
    if decoded is _BAD:
        raise WireFormatError(f'{what} field "{key}" must be {kind.noun}')
    return decoded


def _object(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise WireFormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


# -- the declared codec ----------------------------------------------------------------

#: ``omit`` of a field ``to_json`` always writes
_KEEP = object()


def _wire(kind: _Kind, *, key: str | None = None, omit: Any = _KEEP, default: Any = MISSING,
          default_factory: Any = MISSING) -> Any:
    """Declare a dataclass field as a wire field of ``kind``.

    ``key`` is its wire key (default: the attribute name; ``"a.b"`` nests it
    under ``a``); ``to_json`` leaves the field out when its value is ``omit``.
    """
    return field(default=default, default_factory=default_factory,
                 metadata={"wire": (kind, key, omit)})


_S = TypeVar("_S", bound="_Schema")


class _Schema:
    """Base of the declared wire schemas: ``to_json``/``from_json`` from field plans.

    A subclass names itself for messages (``what``), may declare a ``KIND``
    that answers carry under ``"kind"``, may go without ``api_version``
    (``versioned=False``), and may keep unknown fields in one attribute
    (``extra``) instead of rejecting them.  ``_validate`` is a post-decode
    hook for checks that span fields.
    """

    KIND: ClassVar[str | None] = None

    def __init_subclass__(
        cls, *, what: str, versioned: bool = True, extra: str | None = None, **kwargs: Any
    ) -> None:
        super().__init_subclass__(**kwargs)
        encoders, decoders = [], []
        # this runs before @dataclass does: the class body's ``_wire`` Fields
        # are still class attributes, in declaration order
        for name, spec in vars(cls).items():
            if not isinstance(spec, Field) or "wire" not in spec.metadata:
                continue
            kind, label, omit = spec.metadata["wire"]
            label = label or name
            parent, _, key = label.rpartition(".")
            required = spec.default is MISSING and spec.default_factory is MISSING
            message = f'field "{label}" must be {kind.noun}'
            encoders.append((name, parent or None, key, omit, kind.encode))
            decoders.append((name, parent or None, key, kind.decode, required,
                             spec.default is None, message))
        head = {"api_version": API_VERSION} if versioned else {}
        if cls.KIND is not None:
            head["kind"] = cls.KIND
        cls._what = what
        cls._head = head
        cls._encoders = tuple(encoders)
        cls._decoders = tuple(decoders)
        cls._keys = frozenset(head) | {parent or key for _, parent, key, _, _ in encoders}
        cls._extra = extra

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = dict(self._head)
        for name, parent, key, omit, encode in self._encoders:
            value = getattr(self, name)
            if value is omit:
                continue
            if encode is not None and value is not None:
                value = encode(value)
            if parent is None:
                out[key] = value
            else:
                out.setdefault(parent, {})[key] = value
        if self._extra is not None:
            out.update(getattr(self, self._extra))
        return out

    @classmethod
    def from_json(cls: type[_S], data: Any) -> _S:
        what = cls._what
        data = _object(data, what)
        kwargs: dict[str, Any] = {}
        unknown = data.keys() - cls._keys
        if unknown:
            if cls._extra is None:
                raise WireFormatError(
                    f"{what} has unknown field(s) {sorted(unknown)}; allowed: {sorted(cls._keys)}"
                )
            kwargs[cls._extra] = {k: v for k, v in data.items() if k in unknown}
        if "api_version" in cls._head and data.get("api_version", API_VERSION) != API_VERSION:
            raise WireFormatError(f'{what} field "api_version" must be "{API_VERSION}"')
        if cls.KIND is not None and data.get("kind") != cls.KIND:
            raise WireFormatError(f'{what} field "kind" must be "{cls.KIND}"')
        for name, parent, key, decode, required, nullable, message in cls._decoders:
            source = data
            if parent is not None:
                source = data.get(parent)
                if not isinstance(source, Mapping):
                    raise WireFormatError(f'{what} field "{parent}" must be an object')
            if key not in source:
                if required:
                    raise WireFormatError(f"{what} {message}")
                continue
            value = source[key]
            if value is None and nullable:
                kwargs[name] = None
            else:
                decoded = decode(value)
                if decoded is _BAD:
                    raise WireFormatError(f"{what} {message}")
                kwargs[name] = decoded
        decoded_object = cls(**kwargs)
        decoded_object._validate()
        return decoded_object

    def _validate(self) -> None:
        """Checks across fields, run on every decoded object."""


# -- requests --------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest(_Schema, what="query request"):
    """Body of ``POST /v1/query``: one query in the SQL extension.

    ``deadline_ms`` is the caller's remaining time budget: a server that
    cannot start executing before it runs out answers a ``deadline_exceeded``
    envelope instead of computing a doomed answer, and a relaying front door
    (the cluster coordinator) forwards the *decremented* remainder downstream.
    """

    query: str = _wire(_STRING)
    exhaustive: bool = _wire(_BOOLEAN, default=False)
    deadline_ms: int | None = _wire(_POSITIVE, default=None, omit=None)


@dataclass(frozen=True)
class BatchRequest(_Schema, what="batch request"):
    """Body of ``POST /v1/batch``: many queries, answered concurrently.

    ``deadline_ms`` covers the whole batch; queries that would start after
    the budget ran out answer per-item ``deadline_exceeded`` envelopes.
    """

    queries: tuple[str, ...] = _wire(_STRINGS)
    deadline_ms: int | None = _wire(_POSITIVE, default=None, omit=None)


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


@dataclass(frozen=True)
class UpdateRequest(_Schema, what="update request"):
    """Body of ``POST /v1/update``: overwrite whole columns atomically.

    ``assignments`` maps relation name → attribute name → the full column of
    new values (one number per row, in row order).  All named columns commit
    as **one** database generation: concurrent queries answer either entirely
    from the pre-update snapshot or entirely from the post-update one, never
    a blend (see ``docs/service.md``, "Updates & isolation").
    """

    assignments: Mapping[str, Mapping[str, tuple[float, ...]]] = _wire(_Kind(
        "a non-empty object of columns",
        lambda v: update_assignments(v, number_column),
        lambda a: {relation: {name: list(values) for name, values in columns.items()}
                   for relation, columns in a.items()},
    ))


# -- trace spans -----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpan(_Schema, what="trace span", versioned=False):
    """One node of a request's span tree (``?trace=1`` answers).

    ``duration_ms`` is a monotonic-clock duration; spans carry durations
    rather than absolute timestamps so coordinator and shard-worker clocks
    never mix.  ``meta`` holds span-specific annotations (the root span's
    meta carries ``request_id``); ``children`` are the spans opened while
    this one was current, in start order.
    """

    name: str = _wire(_STRING)
    duration_ms: float = _wire(_NUMBER)
    meta: Mapping[str, Any] | None = _wire(_OBJECT, default=None, omit=None)
    children: tuple["TraceSpan", ...] = _wire(
        _nested("a list of trace spans", "TraceSpan", many=True), default=()
    )


# -- answers ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateAnswer(_Schema, what="update answer"):
    """Wire form of a commit outcome: the new generation and what changed.

    ``changed`` lists the relations whose generation counter was bumped by
    this commit; when it is empty the commit was a no-op and ``generation``
    reports the (unchanged) current generation.
    """

    KIND = "update"

    generation: int = _wire(_INTEGER)
    changed: tuple[str, ...] = _wire(_STRINGS._replace(encode=sorted))
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = _wire(_TRACE, default=None, omit=None)


@dataclass(frozen=True)
class WhatIfAnswer(_Schema, what="what-if answer"):
    """Wire form of a what-if answer (:class:`repro.core.results.WhatIfResult`)."""

    KIND = "what-if"

    value: float = _wire(_NUMBER)
    aggregate: str = _wire(_STRING)
    output_attribute: str = _wire(_STRING)
    variant: str = _wire(_STRING)
    n_scope_tuples: int = _wire(_INTEGER)
    n_blocks: int = _wire(_INTEGER)
    backdoor_set: tuple[str, ...] = _wire(_STRINGS)
    runtime_seconds: float = _wire(_NUMBER)
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = _wire(_TRACE, default=None, omit=None)

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


@dataclass(frozen=True)
class HowToAnswer(_Schema, what="how-to answer"):
    """Wire form of a how-to answer (:class:`repro.core.results.HowToResult`)."""

    KIND = "how-to"

    objective_value: float = _wire(_NUMBER)
    baseline_value: float = _wire(_NUMBER)
    maximize: bool = _wire(_BOOLEAN)
    plan: Mapping[str, str] = _wire(_STRING_MAP)
    solver_status: str = _wire(_STRING)
    runtime_seconds: float = _wire(_NUMBER)
    #: span tree, present only when the request asked for ``?trace=1``
    trace: "TraceSpan | None" = _wire(_TRACE, default=None, omit=None)

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


Answer = WhatIfAnswer | HowToAnswer


def answer_from_result(result: Any) -> Answer:
    """Convert an engine result object into its typed wire answer."""
    if hasattr(result, "objective_value"):
        return HowToAnswer.from_result(result)
    return WhatIfAnswer.from_result(result)


def answer_from_json(data: Any) -> Answer:
    """Strictly decode an answer payload, dispatching on its ``kind``."""
    kind = _object(data, "answer").get("kind")
    if kind == WhatIfAnswer.KIND:
        return WhatIfAnswer.from_json(data)
    if kind == HowToAnswer.KIND:
        return HowToAnswer.from_json(data)
    raise WireFormatError(f'answer field "kind" must be "what-if" or "how-to", '
                          f"not the unknown kind {kind!r}")


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
        data = _object(data, "error body")
        code = data.get("code")
        detail = data.get("detail")
        return cls(
            # an absent, null or empty code is the generic one
            code=(code is not None and _decode(_STRING, code, "error body", "code")) or "error",
            message=_decode(_STRING, data.get("error"), "error body", "error"),
            detail=None if detail is None else _decode(_OBJECT, detail, "error body", "detail"),
        )


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
        data = _object(data, "batch item")
        index = _decode(_INTEGER, data.get("index"), "batch item", "index")
        if "result" in data:
            result = _decode(_OBJECT, data["result"], "batch item", "result")
            return cls(index=index, result=answer_from_json(result))
        return cls(index=index, error=ErrorEnvelope.from_json(data))


# -- stats -----------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsSnapshot(_Schema, what="stats snapshot", extra="sections"):
    """Typed wrapper of ``GET /v1/stats``.

    The core counters are first-class fields; instrumentation sections whose
    layout belongs to other subsystems (``caches``, ``serving``, ``pool``,
    the async front-end's ``aserve``) pass through as mappings — their inner
    shape is documented by those subsystems, and new sections are additive.
    """

    generation: int = _wire(_INTEGER)
    execution: str = _wire(_STRING)
    n_queries: int = _wire(_INTEGER)
    n_batches: int = _wire(_INTEGER)
    uptime_seconds: float = _wire(_NUMBER)
    relation_generations: Mapping[str, int] = _wire(_OBJECT, default_factory=dict)
    caches: Mapping[str, Any] = _wire(_OBJECT, default_factory=dict)
    serving: Mapping[str, Any] = _wire(_OBJECT, default_factory=dict)
    regressors: Mapping[str, Any] = _wire(_OBJECT, default_factory=dict)
    #: MVCC counters (commits, retired, noop_commits, pinned_fallbacks, ...)
    versions: Mapping[str, Any] | None = _wire(_OBJECT, default=None)
    pool: Mapping[str, Any] | None = _wire(_OBJECT, default=None)
    #: every key not declared above, written back as is
    sections: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_service_stats(cls, stats: Mapping[str, Any]) -> "StatsSnapshot":
        """Wrap :meth:`HypeRService.stats` output (extra keys become sections)."""
        return cls.from_json(stats)


# -- prepare ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepareRequest(_Schema, what="prepare request"):
    """Body of ``POST /v1/prepare``: warm plans/estimators before real traffic.

    Every query is planned and its estimator fitted under one pinned
    snapshot; nothing is answered.  Clients call this before heavy sweeps so
    the first real request hits hot caches, and the job executor can warm a
    cold node the same way.
    """

    queries: tuple[str, ...] = _wire(_NON_EMPTY_STRINGS)


@dataclass(frozen=True)
class PrepareAnswer(_Schema, what="prepare answer"):
    """Answer of ``POST /v1/prepare``."""

    KIND = "prepare"

    prepared: int = _wire(_INTEGER)
    generation: int = _wire(_INTEGER)


# -- jobs ------------------------------------------------------------------------------

#: job priorities on the wire (scheduling order: high before normal before low)
JOB_PRIORITIES = ("high", "normal", "low")

#: job lifecycle states (terminal: succeeded / failed / cancelled)
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")


@dataclass(frozen=True)
class JobSubmitRequest(_Schema, what="job submit request"):
    """Body of ``POST /v1/jobs``: one query or a batch, as a durable job.

    Exactly one of ``query``/``queries`` must be present.  ``priority``
    orders the job against the client's other work; ``run_at_generation``
    defers execution until the store has committed at least that generation
    (a writer can submit analysis jobs that must see its own commit).
    """

    priority: str = _wire(_one_of(JOB_PRIORITIES), default="normal")
    query: str | None = _wire(_STRING, default=None, omit=None)
    queries: tuple[str, ...] | None = _wire(_NON_EMPTY_STRINGS, default=None, omit=None)
    run_at_generation: int | None = _wire(_NON_NEGATIVE, default=None, omit=None)
    exhaustive: bool = _wire(_BOOLEAN, default=False, omit=False)

    @property
    def kind(self) -> str:
        return "query" if self.query is not None else "batch"

    @property
    def all_queries(self) -> tuple[str, ...]:
        if self.query is not None:
            return (self.query,)
        return self.queries or ()

    def _validate(self) -> None:
        if (self.query is None) == (self.queries is None):
            raise WireFormatError(
                'job submit request must contain exactly one of "query"/"queries"'
            )


@dataclass(frozen=True)
class JobStatus(_Schema, what="job status"):
    """Typed status answer of the job endpoints (kind ``"job"``).

    ``result_available`` says whether ``GET /v1/jobs/{id}/result`` would
    answer right now — a succeeded job's result can age out of the retention
    store while its terminal status survives.
    """

    KIND = "job"

    job_id: str = _wire(_STRING)
    client_id: str = _wire(_STRING)
    state: str = _wire(_one_of(JOB_STATES))
    kind: str = _wire(_one_of(("query", "batch")), key="job_kind")
    priority: str = _wire(_one_of(JOB_PRIORITIES))
    completed: int = _wire(_INTEGER, key="progress.completed")
    total: int = _wire(_INTEGER, key="progress.total")
    attempts: int = _wire(_INTEGER)
    max_attempts: int = _wire(_INTEGER)
    created_unix: float = _wire(_NUMBER)
    result_available: bool = _wire(_BOOLEAN, default=False)
    finished_unix: float | None = _wire(_NUMBER, default=None, omit=None)
    generation: int | None = _wire(_INTEGER, default=None, omit=None)
    run_at_generation: int | None = _wire(_INTEGER, default=None, omit=None)
    error: str | None = _wire(_STRING, default=None, omit=None)
    error_code: str | None = _wire(_STRING, default=None, omit=None)

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


@dataclass(frozen=True)
class JobListAnswer(_Schema, what="job list"):
    """Answer of ``GET /v1/jobs``: the calling client's jobs, oldest first.

    The wire form adds ``total``, the number of jobs; it is derived, so it is
    checked on decoding but not kept.
    """

    KIND = "job-list"

    jobs: tuple[JobStatus, ...] = _wire(
        _nested("a list of job statuses", "JobStatus", many=True)
    )

    def to_json(self) -> dict[str, Any]:
        return {**super().to_json(), "total": len(self.jobs)}

    @classmethod
    def from_json(cls, data: Any) -> "JobListAnswer":
        if isinstance(data, Mapping) and "total" in data:
            _decode(_INTEGER, data["total"], "job list", "total")
            data = {key: value for key, value in data.items() if key != "total"}
        return super().from_json(data)
