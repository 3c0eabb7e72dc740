"""Concurrent batch execution of query suites (thread mode).

``execute_many`` on :class:`~repro.service.session.HypeRService` delegates
here in ``execution="threads"`` mode (``execution="processes"`` routes to the
shard worker pool in :mod:`repro.shard.pool` instead — pick processes when
CPU-bound regressor fits dominate and the GIL is the bottleneck, threads when
the working set is cache-hot and fits are amortised).  The executor:

1. fingerprints every query and groups the batch by plan group
   (:attr:`~repro.service.fingerprint.PlanFingerprint.variant_key`): what-ifs
   that differ only in their update constants;
2. answers each group in one task on a ``ThreadPoolExecutor``
   (:meth:`HypeRService.answer <repro.service.session.HypeRService.answer>`:
   one plan lookup, one stacked kernel).  Regression fitting, prediction and
   mask evaluation are NumPy kernels that release the GIL, so threads give
   real parallelism across groups without pickling the database.

Shared mutable state is protected at the source: the regressor cache fits
per-key single-flight, and `Relation.columnar_store` materialises its typed
columns under a lock.  Results come back in input order, a failing query's
exception in its slot.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Hashable, Sequence

from ..core.queries import HowToQuery, WhatIfQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import HypeRService

__all__ = ["BatchExecutor", "default_max_workers"]


def default_max_workers() -> int:
    """A conservative thread count: the CPU count, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class BatchExecutor:
    """Groups a query batch by plan group and answers the groups on a thread pool."""

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def run(
        self,
        session: "HypeRService",
        queries: Sequence[WhatIfQuery | HowToQuery | Exception],
    ) -> list:
        """Answer ``queries`` against ``session``, preserving input order.

        Entries that are already ``Exception`` instances (failed parses
        captured by the caller) are passed through as results, and a failing
        query contributes its exception.
        """
        groups: dict[Hashable, list[int]] = {}
        for index, query in enumerate(queries):
            if not isinstance(query, Exception):
                groups.setdefault(session.fingerprint(query).variant_key, []).append(index)

        def run_group(indices: list[int]) -> list:
            return session.answer([queries[index] for index in indices])

        workers = max(1, min(self.max_workers or default_max_workers(), len(groups)))
        if workers == 1:
            answered = [run_group(indices) for indices in groups.values()]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                answered = list(pool.map(run_group, groups.values()))
        results: list = list(queries)  # Exception entries stay in place
        for indices, outcomes in zip(groups.values(), answered):
            for index, outcome in zip(indices, outcomes):
                results[index] = outcome
        return results
