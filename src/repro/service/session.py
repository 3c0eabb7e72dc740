"""The long-lived HypeR query service: ``HypeRService``'s ``execute``,
``execute_many``, ``prepare`` and ``answer`` (the one answer path), the
evaluation of plan groups, the pool's start and stop, and the ``stats()``
sections after the shared head.

:class:`HypeRService` is the "system that serves many queries" counterpart of
the per-query :class:`repro.core.engine.HypeR` library facade.  It holds one
database + causal DAG + engine configuration and answers every query through
one path, :meth:`HypeRService.answer`: it parses and keys each text, pins one
snapshot, fingerprints each query at most once (a what-if text of a key seen at
the snapshot binds the key's), finds or binds each text's plan under its plan
group, reads and writes the result cache and logs completions.
``execute`` is a call of it with one query, ``execute_many`` one with the
batch, whose plan groups run on a thread pool (``execution="threads"``, the
default) or cross a persistent :class:`~repro.shard.pool.ShardPool` of worker processes
(``execution="processes"``), each itself a ``HypeRService`` over the full
snapshot, so every answer is bitwise the single-process path's.

Each decision has one owner, along the paper's plan:

* :mod:`repro.service.state` — one generation's :class:`EngineState`
  (database, engines, column generations), its keys and the commit diff,
  and :class:`~repro.service.state.Snapshots`, the service's pins and its
  commits: lock, install, evict, move the pool;
* :mod:`repro.service.plan` — the plan compiler: fingerprints, views,
  blocks, kernels and fitted estimators in the caches, and bound plans;
* :mod:`repro.shard.pool` — the pool's life cycle: it starts lazily at the
  latest snapshot, serves only its generation and moves with each commit;
* this module — the answer path, the evaluation of plan groups, the pool's
  start and stop, and ``stats()``.

Concurrency model (MVCC, ``docs/service.md``, "Updates & isolation"): every
snapshot lives in a refcounted :class:`~repro.service.versions.VersionStore`.
A query or a batch *pins* the latest committed snapshot (or a named live
``generation``) and reads exactly it until it finishes, so it sees one
generation in full and a commit never pauses it; a reader pinned to a
snapshot the pool has moved past evaluates in-process, bitwise the pool's
answers.  Cache keys embed the generations of the columns they read, so a
commit to a column leaves only what reads it unreachable.

Typical use::

    service = HypeRService(dataset.database, dataset.causal_dag,
                           EngineConfig(regressor="linear"))
    results = service.execute_many(queries)      # shared plans, thread pool
    one = service.execute("USE Credit UPDATE(Status) = 4 ...")
    print(service.stats()["caches"]["estimators"]["hit_rate"])

    sharded = HypeRService(dataset.database, dataset.causal_dag, config,
                           execution="processes", n_shards=4)
    results = sharded.execute_many(queries)      # whole queries, dealt by plan
    sharded.close()
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import cache, partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.estimator import PostUpdateEstimator
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.results import HowToResult, WhatIfResult
from ..exceptions import QuerySemanticsError
from ..lang.parser import parse_keyed
from ..obs import trace as obs_trace
from ..obs.metrics import Figure, MetricsRegistry
from ..relational.database import Database
from .backend import ServingCounters, default_max_workers, raise_first_error
from .cache import QueryCaches
from .fingerprint import PlanFingerprint
from .plan import BoundPlan, PlanCompiler
from .state import EngineState, Snapshots, with_columns
from .versions import VersionStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..shard.pool import ShardPool

__all__ = ["BoundPlan", "HypeRService", "with_columns"]

Query = WhatIfQuery | HowToQuery
Result = WhatIfResult | HowToResult

EXECUTION_MODES = ("threads", "processes")


def _estimator_weight(estimator: PostUpdateEstimator) -> int:
    """Cost weight of a cached estimator: training rows × feature columns."""
    return estimator.n_training_rows * max(1, len(estimator.feature_attributes))


@cache
def _relations(columns: frozenset) -> frozenset[str]:
    """A cached answer's tags: it holds arrays over its term rows, so a commit to a
    relation its plan reads frees it, though its column-keyed entry stays valid."""
    return frozenset(relation for relation, _ in columns)


class HypeRService(ServingCounters, Snapshots):
    """Thread-safe, cache-backed query service over one database.

    Parameters
    ----------
    database / causal_dag / config:
        Exactly as for :class:`repro.core.engine.HypeR`.
    estimator_cache_size:
        LRU bound of the estimator cache (entries).  The view, block and
        candidate caches keep :class:`~repro.service.cache.QueryCaches`'
        bounds (16, 8 and 64 entries); a view entry holds the materialised
        relevant view together with its DAG projection.
    estimator_cache_weight:
        Cost budget of the estimator cache in training-rows × features
        (size-weighted LRU on top of the entry bound; ``None`` disables the
        weight bound).
    result_cache_size / result_ttl_seconds:
        Bound and optional time-to-live of the result cache keyed on exact
        query identity (``PlanFingerprint.query_key``); ``result_cache_size=0``
        disables result caching.
    max_workers:
        Default thread count for :meth:`execute_many` in ``threads`` mode
        (``None``: CPU count capped at 8).
    execution:
        ``"threads"`` (default) executes in-process; ``"processes"`` deals
        queries whole to a persistent :class:`~repro.shard.pool.ShardPool` of
        worker processes, each a ``HypeRService`` of its own
        (:mod:`repro.shard`) — answers are bitwise identical either way.
    n_shards:
        Number of shards/worker processes in ``processes`` mode (default:
        ``max_workers`` or the CPU count capped at 8).
    """

    def __init__(
        self,
        database: Database,
        causal_dag: CausalDAG | None = None,
        config: EngineConfig | None = None,
        *,
        estimator_cache_size: int = 64,
        estimator_cache_weight: int | None = 50_000_000,
        result_cache_size: int = 256,
        result_ttl_seconds: float | None = None,
        max_workers: int | None = None,
        execution: str = "threads",
        n_shards: int | None = None,
        metrics_registry: MetricsRegistry | None = None,
        slow_query_seconds: float = 0.1,
        slow_log_size: int = 64,
    ) -> None:
        if execution not in EXECUTION_MODES:
            raise QuerySemanticsError(
                f"unknown execution mode {execution!r}; expected one of {EXECUTION_MODES}"
            )
        self.config = config if config is not None else EngineConfig()
        self.execution = execution
        self.max_workers = max_workers or default_max_workers()
        self.n_shards = n_shards or self.max_workers
        # The serving instruments, the head of stats() and the registry the
        # front doors expose at GET /v1/metrics come from ServingCounters; the
        # version store, the plan compiler and the pool register their own.
        super().__init__(
            metrics_registry,
            slow_query_seconds=slow_query_seconds,
            slow_log_size=slow_log_size,
        )
        self._pool: "ShardPool | None" = None
        if execution == "processes":
            from ..shard.pool import ShardPool  # lazy: the pool's workers are services

            self._pool = ShardPool(database, causal_dag, self.config, n_shards=self.n_shards)
        pool = self._pool
        self.versions = VersionStore(
            EngineState.build(0, database, causal_dag, self.config),
            # a retired generation's shm segments go with it
            on_retire=None if pool is None else lambda old: pool.release_snapshot(old.generation),
        )
        self.caches = QueryCaches(
            estimator_size=estimator_cache_size,
            result_size=result_cache_size,
            result_ttl_seconds=result_ttl_seconds,
            estimator_weigher=_estimator_weight,
            estimator_max_weight=estimator_cache_weight,
        )
        self._result_cache_enabled = result_cache_size > 0
        self.compiler = PlanCompiler(self.config, self.caches, lambda: self._state)
        for owner in (self.versions, self.compiler, pool):
            if owner is not None:
                owner.register_metrics(self.metrics)
        # Serializes read-modify-write commits (update_relation_columns) so
        # concurrent column updates cannot lose each other; re-entrant because
        # update_database takes it too.
        self._commit_lock = threading.RLock()
        m = self.metrics
        self._m_noop_commits = m.counter(
            "hyper_noop_commits_total", "Commits that changed no relation"
        )
        self._m_pinned_fallbacks = m.counter(
            "hyper_pinned_fallbacks_total",
            "Queries evaluated in-process because their pinned snapshot was superseded",
        )

    def _capacity_hint(self) -> int:
        """Shard count in ``processes`` mode, worker threads otherwise."""
        if self.execution == "processes":
            return self.n_shards
        return self.max_workers

    # -- parsing and fingerprinting ------------------------------------------------------

    def _keyed(self, query: str | Query, eager: bool = False) -> tuple[Query, Hashable]:
        """``query`` parsed, and a what-if text's key (:func:`parse_keyed`) or ``None``."""
        if not isinstance(query, str):
            return self._as_query(query), None
        parsed, key = parse_keyed(query, eager)
        return parsed, key if isinstance(parsed, WhatIfQuery) else None

    def fingerprint(self, query: str | Query) -> PlanFingerprint:
        """The canonical plan fingerprint of ``query`` at the current generation."""
        return self.compiler.fingerprint(self._state, self._as_query(query))

    def prepare(
        self, query: str | Query | Sequence[str | Query]
    ) -> BoundPlan | list[BoundPlan]:
        """Warm the caches for ``query``'s plan and return the shared state.

        A what-if text's plan is bound at the latest snapshot, so until the
        next commit an :meth:`execute` of any text differing from it only in
        update constants pays for parsing and prediction alone.

        A list (or tuple) of queries warms every plan in order against one
        pinned snapshot and returns the plans as a list — ``repro serve``
        uses this to warm each ``--warm-query`` before binding the server.
        """
        many = isinstance(query, (list, tuple))
        items = query if many else [query]
        keyed = [self._keyed(item, eager=True) for item in items]
        with self.pinned() as state:
            plans = [
                self.compiler.prepare(state, parsed, key, isinstance(item, str))
                for item, (parsed, key) in zip(items, keyed)
            ]
        return plans if many else plans[0]

    # -- execution ---------------------------------------------------------------------------

    def execute(
        self,
        query: str | Query,
        *,
        exhaustive: bool = False,
        trace: "obs_trace.TraceContext | None" = None,
        generation: int | None = None,
    ) -> Result:
        """Answer one query, reusing every applicable cached plan component.

        Repeated identical queries (same plan *and* parameters) are answered
        from the bounded result cache in O(1); the cache key embeds the
        generations of every column the answer reads, so no stale answer can
        survive a database update, and ``result_ttl_seconds`` adds a
        wall-clock bound on top for dashboard-style workloads.

        ``trace`` activates span recording for this call (the front doors
        pass the request's :class:`~repro.obs.trace.TraceContext` when the
        client asked for ``?trace=1``); with ``trace=None`` every span site
        is a no-op.  ``generation`` answers at that generation instead of the
        latest, if it is still live (:class:`LookupError` otherwise).  It is
        :meth:`answer` of the one query, tracked whole.
        """
        with obs_trace.activate(trace):
            (outcome,) = self.answer(
                [query], exhaustive=exhaustive, generation=generation, tracked=False
            )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def what_if(self, query: WhatIfQuery) -> WhatIfResult:
        """Alias of :meth:`execute` for programmatic what-if queries."""
        return self.execute(query)  # type: ignore[return-value]

    def how_to(self, query: HowToQuery, *, exhaustive: bool = False) -> HowToResult:
        """Alias of :meth:`execute` for programmatic how-to queries."""
        return self.execute(query, exhaustive=exhaustive)  # type: ignore[return-value]

    def execute_many(
        self,
        queries: Sequence[str | Query],
        *,
        max_workers: int | None = None,
        return_errors: bool = False,
    ) -> list[Result | Exception]:
        """Answer a batch per plan group (:meth:`answer`); results align with the input order.

        In ``threads`` mode the groups run concurrently on up to
        ``max_workers`` threads.  In ``processes`` mode the whole batch
        crosses the shard pool in a single scatter round-trip — each query
        dealt whole to one worker, which answers its share group by group.
        Either way the batch reads one pinned snapshot.  With
        ``return_errors=True`` a failing query yields its exception in the
        result list while the rest of the batch completes normally (the HTTP
        ``/batch`` endpoint uses this); with the default, the first failure
        in input order propagates at the end.
        """
        self._m_batches.inc()
        # units=0: per-query in-flight is tracked around each group's
        # evaluation or the pool crossing; the batch wrapper contributes only
        # its latency sum.
        with self._track("batch", units=0):
            results = self.answer(queries, max_workers=max_workers or self.max_workers)
        return results if return_errors else raise_first_error(results)

    def answer(
        self,
        items: Sequence[str | Query],
        *,
        exhaustive: bool = False,
        generation: int | None = None,
        max_workers: int | None = None,
        around_group: Callable[[Callable[[], list]], list] | None = None,
        tracked: bool = True,
    ) -> list[Result | Exception]:
        """Answer texts and query objects under one pinned snapshot, each outcome in its slot.

        The one answer path: every query, alone or in a batch, is parsed and
        keyed here (one ``parse`` span), fingerprinted, bound to its plan,
        served from or stored to the result cache and logged as a completion.
        An item that fails to parse yields its error, and a failing query the
        exception :meth:`execute` raises for it.  A what-if text's fingerprint
        is taken once per text key per snapshot, the key's later texts binding
        it (:meth:`~repro.service.plan.PlanCompiler.keyed`).  Result-cache
        hits are served first.  The misses cross the shard pool as one step in
        ``processes`` mode, else each plan group
        (:attr:`~repro.service.fingerprint.PlanFingerprint.variant_key`) is a
        step, whose plan a text finds or binds
        (:meth:`~repro.service.plan.PlanCompiler.plan`); up to
        ``max_workers`` steps run at a time on a thread pool.
        ``around_group(evaluate)`` wraps each step and returns its outcomes —
        a pool worker times it, a cluster node checks its request deadline
        first; what it raises is the outcome of each of the step's queries.
        ``tracked=False``: the call, but for its parse, is tracked whole as
        one query (``execute``), not per step.
        """
        results: list[Result | Exception] = list(items)
        parsed = []
        with obs_trace.span("parse"):
            for index, item in enumerate(items):
                try:
                    parsed.append((index, *self._keyed(item)))
                except Exception as error:  # noqa: BLE001 - this item's own
                    results[index] = error
        if not parsed:
            return results
        self._m_queries.inc(len(parsed))
        with nullcontext() if tracked else self._track("query"), self.pinned(generation) as state:
            started = time.perf_counter()
            entries = []
            for index, query, key in parsed:
                with obs_trace.span("fingerprint"):
                    entries.append((index, query, self.compiler.keyed(state, query, key)))
            bound = self.compiler.bound
            caching = self._result_cache_enabled
            with obs_trace.span("cache.result") if caching else nullcontext() as cache_span:
                found = 0  # texts served outside compiler.plan that found their plan bound
                groups: dict[Hashable, list] = {}
                for index, query, fingerprint in entries:
                    result_key = None
                    if caching:
                        result_key = self.compiler.result_key(state, fingerprint, exhaustive)
                        cached = self.caches.results.get(result_key)
                        if cached is not None:
                            found += bound(state, fingerprint, isinstance(items[index], str))
                            results[index] = cached
                            took = time.perf_counter() - started
                            self._record_completion(query, items[index], took, fingerprint.log_key)
                            continue
                    groups.setdefault(fingerprint.variant_key, []).append(
                        (index, query, fingerprint, result_key)
                    )
                steps, ran = list(groups.values()), None
                if self._pool is not None and steps:
                    # one crossing, binding nothing; workers group their shares
                    crossing = [entry for group in steps for entry in group]
                    outcomes, elapsed = self._step(
                        state, exhaustive, self._pool, around_group, tracked, items, crossing
                    )
                    if outcomes is None:  # the pool moved past the snapshot: in process
                        self._m_pinned_fallbacks.inc(len(crossing))
                    else:
                        steps, ran = [crossing], [(outcomes, elapsed)]
                        found += sum(
                            bound(state, fingerprint, isinstance(items[index], str))
                            for index, _query, fingerprint, _result_key in crossing
                        )
                if ran is None:
                    step = partial(
                        self._step, state, exhaustive, None, around_group, tracked, items
                    )
                    workers = min(max_workers or 1, len(steps))
                    if workers > 1:
                        with ThreadPoolExecutor(max_workers=workers) as threads:
                            ran = list(threads.map(step, steps))
                    else:
                        ran = [step(group) for group in steps]
                for group, (outcomes, elapsed) in zip(steps, ran):
                    for (index, query, fingerprint, result_key), outcome in zip(group, outcomes):
                        results[index] = outcome
                        self._record_completion(query, items[index], elapsed, fingerprint.log_key)
                        if result_key is not None and not isinstance(outcome, Exception):
                            tags = _relations(fingerprint.columns)
                            self.caches.results.put(result_key, outcome, tags=tags)
                if found:
                    self.compiler.hit(found)
            if cache_span is not None:
                cache_span.meta["hit"] = not steps
        return results

    def _step(
        self,
        state: EngineState,
        exhaustive: bool,
        pool: "ShardPool | None",
        around_group: Callable[[Callable[[], list]], list] | None,
        tracked: bool,
        items: Sequence[str | Query],
        entries: list[tuple[int, Query, PlanFingerprint, Hashable]],
    ) -> tuple[list[Result | Exception] | None, float]:
        """One step of :meth:`answer` and how long it took: a plan group, or a
        whole crossing (tracked as one shard batch), whose outcomes are
        ``None`` if the pool refused it."""
        n = len(entries)
        # a group that holds a text finds or binds its plan; one of query objects neither
        text = any(isinstance(items[entry[0]], str) for entry in entries)
        evaluate = partial(self._evaluate, state, entries, exhaustive, pool, items, text)
        # in process each query waits its group out
        track = ("query", n, n) if pool is None else ("shard_batch", n, 1)
        started = time.perf_counter()
        with self._track(*track) if tracked else nullcontext():
            with obs_trace.span("execute") as span:
                if span is not None:
                    span.meta["bound"] = pool is None and self.compiler.bound(
                        state, entries[0][2], text
                    )
                try:
                    outcomes = evaluate() if around_group is None else around_group(evaluate)
                except Exception as error:  # noqa: BLE001 - each of the step's queries'
                    outcomes = [error] * n
        return outcomes, time.perf_counter() - started

    def _evaluate(
        self,
        state: EngineState,
        entries: Sequence[tuple[int, Query, PlanFingerprint, Hashable]],
        exhaustive: bool,
        pool: "ShardPool | None",
        items: Sequence[str | Query],
        text: bool,
    ) -> list[Result | Exception] | None:
        """The outcomes of a batch's misses through ``pool`` (``None``: a commit
        moved the pool past ``state``), or of one plan group: each distinct
        query once, a group's what-ifs in one stacked call — or, if that fails,
        each alone, so a failure is its own query's, own envelope.  A what-if
        group that holds a ``text`` finds or binds its plan
        (:meth:`~repro.service.plan.PlanCompiler.plan`).  A query crosses the
        pool as its text (a query object if the caller passed one)."""
        if pool is not None:
            return pool.run_batch(
                [
                    items[index] if isinstance(items[index], str) else query
                    for index, query, _fingerprint, _key in entries
                ],
                return_errors=True,
                fingerprints=[fingerprint for _i, _q, fingerprint, _k in entries],
                exhaustive=exhaustive,
                generation=state.generation,
            )
        slot_of: dict[Hashable, int] = {}
        slots = [slot_of.setdefault(entry[2].parameter_key, len(slot_of)) for entry in entries]
        members = list(dict(zip(slots, entries)).values())

        def evaluate(members: Sequence[tuple[int, Query, PlanFingerprint, Hashable]]) -> list:
            _index, query, fingerprint, _key = members[0]
            if isinstance(query, HowToQuery):  # a how-to is a group of its own
                return [self.compiler.how_to(state, query, fingerprint, exhaustive)]
            plan = self.compiler.plan(state, query, fingerprint, text)
            return state.whatif.evaluate_variants(
                [member[1] for member in members],
                prepared=plan.what_if,
                estimator=plan.estimator,
            )

        try:
            answers = evaluate(members)
        except Exception as error:  # noqa: BLE001 - isolated below
            answers = [error]
            if len(members) > 1:
                answers = [self._outcome(evaluate, [member]) for member in members]
        return [answers[slot] for slot in slots]

    @staticmethod
    def _outcome(evaluate: Callable[[Any], list], members: Any) -> Result | Exception:
        try:
            return evaluate(members)[0]
        except Exception as error:  # noqa: BLE001 - this query's own
            return error

    def start_pool(self) -> None:
        """Eagerly start the shard pool for the current generation.

        Optional — the pool starts lazily on the first ``processes``-mode
        query — but starting it *before* spawning request-handler threads
        lets the pool use the cheap ``fork`` start method safely (forking a
        multithreaded parent risks cloning held locks); ``repro serve`` calls
        this before binding the HTTP server.  No-op in ``threads`` mode.
        """
        if self._pool is not None:
            self._pool.start()

    def close(self) -> None:
        """Stop the shard pool's workers (idempotent; threads mode has nothing to
        close).  A later ``processes``-mode query starts them again."""
        if self._pool is not None:
            self._pool.stop()

    def __enter__(self) -> "HypeRService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- instrumentation -------------------------------------------------------------------

    #: ``stats()``: the serving head, then the snapshot, caches and pool.
    #: ``regressors`` counts fits and hits over the service's life (those of
    #: estimators the LRU dropped are folded in); in ``processes`` mode the
    #: fits inside shard workers are not included, ``pool`` reports the pool's
    #: own counters instead
    FIGURES = ServingCounters.FIGURES + (
        Figure("relation_generations", attrgetter("relation_generations")),
        Figure("versions", lambda service: service.versions.stats()),
        Figure("versions.noop_commits", lambda service: int(service._m_noop_commits.value)),
        Figure("versions.pinned_fallbacks",
               lambda service: int(service._m_pinned_fallbacks.value)),
        Figure("caches", lambda service: service.compiler.cache_stats()),
        Figure("regressors", lambda service: service.compiler.regressor_stats()),
        Figure("pool",
               lambda service: None if service._pool is None else service._pool.live_stats()),
    )
