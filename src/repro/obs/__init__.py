"""Observability: trace contexts, a metrics registry, and a slow-query log.

The package is dependency-free and importable from every layer:

* :mod:`repro.obs.trace` — request ids and hierarchical spans with
  monotonic timings.  Spans are recorded only while a trace is *active*
  (``activate(ctx)``); otherwise ``span(...)`` is a no-op, so untraced
  requests pay a single context-variable read per instrumentation point.
* :mod:`repro.obs.metrics` — thread-safe counters, gauges, and
  log-bucketed histograms with Prometheus text exposition.  Derived
  values (cache stats, MVCC stats, pool stats) are *callback collectors*
  evaluated only at scrape time, declared once per owner as the
  ``Figure`` rows its ``stats()`` is read off too.
* :mod:`repro.obs.slowlog` — a bounded slow-query log keyed by plan
  fingerprint, served by ``GET /v1/slow``.
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
