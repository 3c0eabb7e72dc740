"""The query service layer (``docs/service.md``; the suite workloads of paper
§5): a long-lived session over one database and causal DAG that answers
suites of what-if and how-to queries through one answer path, rebuilding each
piece of causal work — view, blocks, fitted estimator — only when a column it
reads changes, with commits isolated from readers by MVCC snapshots.  The HTTP
door over a backend (``repro serve``) is :mod:`repro.aserve`.
"""

from .backend import ServiceBackend, ServingCounters, default_max_workers
from .cache import CacheStats, LRUCache, QueryCaches, TTLCache
from .fingerprint import (
    PlanFingerprint,
    config_key,
    dag_key,
    fingerprint_how_to,
    fingerprint_query,
    fingerprint_what_if,
    update_key,
    use_key,
)
from .plan import BoundPlan
from .session import HypeRService

__all__ = [
    "BoundPlan",
    "CacheStats",
    "HypeRService",
    "LRUCache",
    "PlanFingerprint",
    "QueryCaches",
    "ServiceBackend",
    "ServingCounters",
    "TTLCache",
    "config_key",
    "dag_key",
    "default_max_workers",
    "fingerprint_how_to",
    "fingerprint_query",
    "fingerprint_what_if",
    "update_key",
    "use_key",
]
