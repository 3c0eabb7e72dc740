"""The HypeR query service layer: fingerprints, caches, batch execution.

This package turns the per-query engines of :mod:`repro.core` into a servable
system (the ROADMAP's production north star):

* :mod:`~repro.service.fingerprint` — canonical logical-plan fingerprints
  separating plan structure (which determines the expensive causal work)
  from parameters (update constants, clause literals);
* :mod:`~repro.service.cache` — bounded, instrumented LRU caches for views,
  fitted estimators, block decompositions and candidate enumerations;
* :mod:`~repro.service.session` — the :class:`HypeRService` facade
  (``prepare`` / ``execute`` / ``execute_many`` / ``stats``), whose
  ``answer`` groups a batch by plan and runs the groups on a thread pool,
  over :mod:`~repro.service.state` (engine state, commit diff, the pins and
  commits) and :mod:`~repro.service.plan` (the plan compiler);
* :mod:`~repro.service.backend` — the :class:`ServiceBackend` protocol the
  serving stack calls and the :class:`ServingCounters` every backend shares.

The HTTP door over a backend (``repro serve``) is :mod:`repro.aserve`.  See
``docs/service.md`` for the architecture and invalidation rules.
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
