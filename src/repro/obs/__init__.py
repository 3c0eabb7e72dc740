"""Observability (``docs/observability.md``): request ids and hierarchical trace
spans, a thread-safe metrics registry with Prometheus text exposition whose
series each owner declares once as ``Figure`` rows, and a bounded slow-query
log — served at ``GET /v1/metrics`` and ``GET /v1/slow``, with ``?trace=1``
embedding a request's span tree in its answer.  The package is
dependency-free and importable from every layer.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    validate_exposition,
)
from .slowlog import SlowQueryLog
from .trace import (
    Span,
    TraceContext,
    activate,
    add_span,
    current_trace,
    format_span_tree,
    new_request_id,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "TraceContext",
    "activate",
    "add_span",
    "current_trace",
    "exponential_buckets",
    "format_span_tree",
    "new_request_id",
    "span",
    "validate_exposition",
]
