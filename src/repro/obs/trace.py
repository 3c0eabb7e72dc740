"""Request ids and hierarchical trace spans with monotonic timings.

A :class:`TraceContext` is created at a front door (or by the CLI) per
traced request — its id comes from a client-sent ``X-Request-Id`` header
or is generated.  Code *anywhere* below records spans with the module
level :func:`span` context manager::

    with obs.activate(trace):          # front door / service entry
        ...
        with obs.span("estimator.fit", plan=digest):   # any layer
            ...

``span`` is a strict no-op (one context-variable read) when no trace is
active, which is what keeps tracing overhead out of untraced requests.
The active trace propagates through a :class:`contextvars.ContextVar`,
so nested layers (``VersionStore.commit``, cache factories) need no
signature changes — but it does **not** cross threads or processes:

* thread/executor hops pass the ``TraceContext`` explicitly (e.g.
  ``HypeRService.execute(..., trace=ctx)`` re-activates it);
* shard workers measure their own spans as plain dicts shipped back
  inside each answer's ``metadata`` across the pickling boundary,
  re-attached under the batch span by :func:`add_span`.

Durations are measured with ``time.perf_counter`` and serialized in
milliseconds; worker clocks never mix with coordinator clocks because
the wire form carries durations, not absolute timestamps.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Iterator, Mapping

__all__ = [
    "Span",
    "TraceContext",
    "activate",
    "add_span",
    "current_trace",
    "format_span_tree",
    "new_request_id",
    "span",
]


def new_request_id() -> str:
    """A fresh 16-hex-char request id (also used by the client SDK)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed region; children are spans opened while it was current."""

    __slots__ = ("name", "meta", "children", "duration_seconds")

    def __init__(self, name: str, meta: dict[str, Any] | None = None):
        self.name = name
        self.meta: dict[str, Any] = meta or {}
        self.children: list[Span] = []
        self.duration_seconds: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict wire form (the shape of the v1 ``TraceSpan`` schema)."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(1000.0 * (self.duration_seconds or 0.0), 6),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {len(self.children)} children)"


class TraceContext:
    """A request id plus the root span of one request's span tree."""

    def __init__(self, request_id: str | None = None, *, root_name: str = "request"):
        self.request_id = request_id or new_request_id()
        self.root = Span(root_name, {"request_id": self.request_id})
        self._lock = threading.RLock()
        self._started = time.perf_counter()

    def finish(self) -> None:
        """Close the root span (idempotent — keeps the first duration)."""
        if self.root.duration_seconds is None:
            self.root.duration_seconds = time.perf_counter() - self._started

    def to_wire(self) -> dict[str, Any]:
        """Finalize and serialize the span tree for an answer payload."""
        self.finish()
        with self._lock:
            return self.root.to_dict()


# the (context, current-parent-span) pair for the executing logical context
_ACTIVE: ContextVar[tuple[TraceContext, Span] | None] = ContextVar(
    "repro_obs_active_trace", default=None
)


def current_trace() -> TraceContext | None:
    """The active trace context, if any (e.g. for slow-log request ids)."""
    active = _ACTIVE.get()
    return active[0] if active is not None else None


#: what ``activate(None)`` and an untraced ``span`` return: entered, it yields ``None``
_UNTRACED = nullcontext()


def activate(ctx: TraceContext | None) -> AbstractContextManager[TraceContext | None]:
    """Make ``ctx`` the active trace; ``activate(None)`` is a no-op."""
    return _UNTRACED if ctx is None else _activated(ctx)


@contextmanager
def _activated(ctx: TraceContext) -> Iterator[TraceContext]:
    token = _ACTIVE.set((ctx, ctx.root))
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


def span(name: str, **meta: Any) -> AbstractContextManager[Span | None]:
    """Record a timed child span under the current parent; no-op untraced."""
    active = _ACTIVE.get()
    return _UNTRACED if active is None else _span(active, name, meta)


@contextmanager
def _span(active: tuple[TraceContext, Span], name: str, meta: dict) -> Iterator[Span]:
    ctx, parent = active
    child = Span(name, dict(meta) if meta else None)
    with ctx._lock:
        parent.children.append(child)
    token = _ACTIVE.set((ctx, child))
    started = time.perf_counter()
    try:
        yield child
    finally:
        child.duration_seconds = time.perf_counter() - started
        _ACTIVE.reset(token)


def add_span(
    name: str,
    duration_seconds: float,
    *,
    meta: Mapping[str, Any] | None = None,
    children: list[dict[str, Any]] | None = None,
) -> None:
    """Attach a pre-measured span (e.g. shipped from a shard worker) under
    the current parent.  No-op when no trace is active."""
    active = _ACTIVE.get()
    if active is None:
        return
    ctx, parent = active
    child = Span(name, dict(meta) if meta else None)
    child.duration_seconds = float(duration_seconds)
    for raw in children or ():
        child.children.append(_span_from_dict(raw))
    with ctx._lock:
        parent.children.append(child)


def _span_from_dict(raw: Mapping[str, Any]) -> Span:
    out = Span(str(raw.get("name", "?")), dict(raw.get("meta") or {}) or None)
    out.duration_seconds = float(raw.get("duration_ms", 0.0)) / 1000.0
    for child in raw.get("children") or ():
        out.children.append(_span_from_dict(child))
    return out


def format_span_tree(tree: Mapping[str, Any], *, _indent: int = 0) -> str:
    """Pretty-print a wire-form span tree (``repro query --trace``)."""
    lines: list[str] = []
    _format_into(tree, 0, lines)
    return "\n".join(lines)


def _format_into(node: Mapping[str, Any], depth: int, lines: list[str]) -> None:
    duration = float(node.get("duration_ms", 0.0))
    meta = node.get("meta") or {}
    extras = " ".join(f"{key}={value}" for key, value in meta.items())
    prefix = "  " * depth + ("- " if depth else "")
    lines.append(
        f"{prefix}{node.get('name', '?')}  {duration:.3f} ms" + (f"  [{extras}]" if extras else "")
    )
    for child in node.get("children") or ():
        _format_into(child, depth + 1, lines)
