"""The long-lived HypeR query service.

:class:`HypeRService` is the "system that serves many queries" counterpart of
the per-query :class:`repro.core.engine.HypeR` library facade.  It holds one
database + causal DAG + engine configuration and, across queries:

* caches materialised relevant views, fitted estimators, block decompositions
  and final **results**, keyed by :mod:`plan fingerprints
  <repro.service.fingerprint>` that embed the **generation counters of the
  columns** each entry reads — ``update_database`` bumps only the columns
  that changed, so everything reading none of them stays warm, while
  ``update_causal_dag`` / ``invalidate`` drop everything;
* answers every query through one path, :meth:`HypeRService.answer`: it pins
  one snapshot, fingerprints each query once (a what-if text of a bound key
  not at all), binds plans, reads and writes the result cache and logs
  completions.  ``execute`` is a call of it with one query, ``execute_many``
  one with the batch, whose plan groups run on a thread pool
  (``execution="threads"``, the default) or cross a persistent
  :class:`~repro.shard.pool.ShardPool` of worker **processes**
  (``execution="processes"``, see :mod:`repro.shard`), each of which is
  itself a ``HypeRService`` over the full snapshot, so every query is dealt
  whole and answered bitwise equal to the single-process path;
* reports instrumentation through :meth:`stats`.

Concurrency model (MVCC, ``docs/service.md``, "Updates & isolation"): every
generation-dependent piece (database, engines, DAG identity, counters) lives
in one immutable ``_EngineState`` snapshot, kept in a refcounted
:class:`~repro.service.versions.VersionStore`.  A query or a batch *pins* the
latest committed snapshot (or a named live ``generation``) when it begins and
reads exactly that snapshot until it finishes, so it sees the old or the new
generation in full, never a mix, and a commit never pauses it; a superseded
snapshot retires when its last reader unpins.  In ``processes`` mode the
shard pool serves the latest generation, moved forward in place by each
commit (:meth:`~repro.shard.pool.ShardPool.apply_update`); a reader pinned to
an older snapshot evaluates its pinned state in-process, bitwise the pool's
answers.  Cache keys embed the generations of the columns they read, so an
entry reading a changed column is unreachable from the new generation and
ages out of its bounded LRU (eviction by column tag frees it sooner).

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

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Sequence

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.estimator import PostUpdateEstimator, build_view_dag
from ..core.howto import HowToEngine
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.results import HowToResult, WhatIfResult
from ..core.whatif import PreparedWhatIf, WhatIfEngine, validate_query
from ..exceptions import QuerySemanticsError
from ..lang.parser import parse_keyed, parse_query
from ..lang.unparse import unparse
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..probdb.blocks import block_labels, label_columns
from ..relational.columnar import KernelCache
from ..relational.database import Database
from ..relational.relation import Relation, changed_attributes
from ..relational.view import UseSpec
from .backend import ServingCounters, default_max_workers
from .cache import CacheStats, HashedKey, QueryCaches
from .fingerprint import (
    Column,
    PlanFingerprint,
    dag_key,
    fingerprint_query,
    plan_columns,
    update_key,
    use_key,
)
from .versions import Commit, Snapshot, VersionStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..shard.pool import ShardPool

__all__ = ["BoundPlan", "HypeRService", "with_columns"]

Query = WhatIfQuery | HowToQuery
Result = WhatIfResult | HowToResult

EXECUTION_MODES = ("threads", "processes")

#: bound plans one snapshot keeps, by text key and by plan group, the oldest
#: dropped first; they go with their snapshot
_BOUND_PLANS = 64


def _estimator_weight(estimator: PostUpdateEstimator) -> int:
    """Cost weight of a cached estimator: training rows × feature columns."""
    return estimator.n_training_rows * max(1, len(estimator.feature_attributes))


def with_columns(database: Database, assignments: dict[str, dict[str, Any]]) -> Database:
    """``database`` with whole columns overwritten: ``{relation: {attribute: values}}``.

    Unnamed relations keep their identity, so committing the result bumps
    only the relations named here; an unknown relation or attribute (it
    overwrites, never adds) or a wrong length raises before anything commits.
    """
    for relation_name, columns in assignments.items():
        if relation_name not in database:
            raise QuerySemanticsError(
                f"unknown relation {relation_name!r}; database has "
                f"{sorted(database.relation_names)}"
            )
        relation = database[relation_name]
        for attribute, values in columns.items():
            if attribute not in relation:
                raise QuerySemanticsError(f"unknown attribute {attribute!r} of {relation_name!r}")
            relation = relation.with_column(attribute, values)
        database = database.with_relation(relation)
    return database


@dataclass(frozen=True)
class _EngineState:
    """One generation's immutable execution state, swapped atomically."""

    generation: int
    database: Database
    causal_dag: CausalDAG | None
    dag_identity: Hashable
    whatif: WhatIfEngine
    howto: HowToEngine
    #: generation counter per relation, bumped with any of its columns (what
    #: ``stats()`` and the wire report).  Treated as immutable.
    relation_generations: dict[str, int] = field(default_factory=dict)
    #: generation counter per ``(relation, attribute)``; a cache key holds the
    #: counters of the columns its entry reads.  Treated as immutable.
    column_generations: dict[Column, int] = field(default_factory=dict)
    #: what each plan or view reads: schema and DAG facts only, so a commit
    #: that changes neither hands the dict on
    reads: dict = field(default_factory=dict)
    #: this state's keys, built on first use
    memo: dict = field(default_factory=dict)
    #: this state's bound plans (:class:`BoundPlan`), by text key and by plan group
    plans: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        generation: int,
        database: Database,
        causal_dag: CausalDAG | None,
        config: EngineConfig,
        relation_generations: dict[str, int] | None = None,
        column_generations: dict[Column, int] | None = None,
        reads: dict | None = None,
    ) -> "_EngineState":
        # Both engines and every cached view share one set of relations and
        # column stores.
        whatif = WhatIfEngine(database, causal_dag, config)
        howto = HowToEngine(database, causal_dag, config)
        if relation_generations is None:
            relation_generations = {name: 0 for name in database.relation_names}
        return cls(
            generation=generation,
            database=database,
            causal_dag=causal_dag,
            dag_identity=dag_key(causal_dag),
            whatif=whatif,
            howto=howto,
            relation_generations=relation_generations,
            column_generations=column_generations or {},
            reads={} if reads is None else reads,
        )

    def columns_key(self, columns: Sequence[Column]) -> tuple:
        """``(relation, attribute, generation)`` of each of ``columns``."""
        return tuple((*column, self.column_generations.get(column, 0)) for column in columns)

    def _keyed(self, key: Hashable, read: Callable[[], Any], keys: Callable[[Any], Any]) -> Any:
        """``keys(read())``, built once per state; ``read()`` once per schema."""
        found = self.memo.get(key)
        if found is None:
            columns = self.reads.get(key)
            if columns is None:
                columns = self.reads[key] = read()
            found = self.memo[key] = keys(columns)
        return found

    def plan_generations(self, query: "Query", structure: Hashable, when: Hashable) -> tuple:
        """A fingerprint's ``reads``: the generations of the columns the plan's
        estimator and its ``When`` clause read (:func:`plan_columns`), and those."""
        return self._keyed(
            ("plan", structure, when),
            lambda: plan_columns(query, self.database, self.causal_dag, self.whatif.config),
            lambda read: (*map(self.columns_key, read), frozenset(read[0] + read[1])),
        )

    def view_columns(self, use: UseSpec) -> tuple:
        """``use``'s key; its view's key and columns; each view column's generations, sources."""
        spec = use_key(use)

        def keys(sources: dict) -> tuple:
            every = sorted({column for read in sources.values() for column in read})
            gens = self.column_generations
            generations = {a: tuple(gens.get(c, 0) for c in read) for a, read in sources.items()}
            key = (self.columns_key(every), self.dag_identity, spec)
            return spec, key, every, generations, sources

        return self._keyed(("view", spec), lambda: use.column_sources(self.database), keys)

    def blocks_key(self) -> tuple[Hashable, tuple[Column, ...]]:
        """The block labelling's key — the relations' lengths and the generations
        of the columns it reads (:func:`~repro.probdb.blocks.label_columns`) — and those."""
        lengths = lambda: tuple((r.name, len(r)) for r in self.database)  # noqa: E731
        return self._keyed(
            ("blocks",),
            lambda: label_columns(self.database, self.causal_dag),
            lambda columns: ((lengths(), self.columns_key(columns)), columns),
        )


@cache
def _relations(columns: frozenset) -> frozenset[str]:
    """A cached answer's tags: it holds arrays over its term rows, so a commit to a
    relation its plan reads frees it, though its column-keyed entry stays valid."""
    return frozenset(relation for relation, _ in columns)


@dataclass(eq=False, repr=False, slots=True)
class BoundPlan:
    """A plan at one snapshot: what :meth:`HypeRService.prepare` returns, and what a
    what-if of a seen text key or plan group reuses (``docs/service.md``, "Bound plans").

    ``what_if`` is a what-if's full-view preparation (scope mask, disjuncts,
    block labels), exactly what its execution evaluates; ``None`` for a how-to.
    """

    fingerprint: PlanFingerprint
    view: Relation
    estimator: PostUpdateEstimator | None
    what_if: PreparedWhatIf | None = None

    def bind(self, query: WhatIfQuery) -> PlanFingerprint:
        """The fingerprint of ``query``, a what-if of this plan's text key: this
        plan's, with ``query``'s update constants."""
        fingerprint = self.fingerprint
        return PlanFingerprint(
            "what-if",
            fingerprint.estimator_key,
            fingerprint.plan_key,
            (update_key(query.updates), *fingerprint.parameter_key[1:]),
            fingerprint.columns,
        )


class HypeRService(ServingCounters):
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
        self.versions = VersionStore(
            _EngineState.build(0, database, causal_dag, self.config),
            on_retire=self._on_retire_snapshot,
        )
        self.caches = QueryCaches(
            estimator_size=estimator_cache_size,
            result_size=result_cache_size,
            result_ttl_seconds=result_ttl_seconds,
            estimator_weigher=_estimator_weight,
            estimator_max_weight=estimator_cache_weight,
        )
        self._result_cache_enabled = result_cache_size > 0
        self.max_workers = max_workers
        self.n_shards = n_shards or max_workers or default_max_workers()
        # Serializes read-modify-write commits (update_relation_columns) so
        # concurrent column updates cannot lose each other; re-entrant because
        # update_database takes it too.
        self._commit_lock = threading.RLock()
        self._pool_lock = threading.Lock()
        self._pool: "ShardPool | None" = None
        self._started_at = time.time()
        # The serving instruments (and the registry the front doors expose at
        # GET /v1/metrics) come from ServingCounters; the ones below are this
        # backend's own.
        super().__init__(
            metrics_registry,
            slow_query_seconds=slow_query_seconds,
            slow_log_size=slow_log_size,
        )
        m = self.metrics
        self._m_noop_commits = m.counter(
            "hyper_noop_commits_total", "Commits that changed no relation"
        )
        self._m_pinned_fallbacks = m.counter(
            "hyper_pinned_fallbacks_total",
            "Queries evaluated in-process because their pinned snapshot was superseded",
        )
        self._register_collectors()
        # Fold evicted/invalidated estimators' regressor counters into running
        # totals so stats() stays monotonic across evictions.  Guarded by its
        # own lock because the callback runs under the cache lock.
        self._retired_lock = threading.Lock()
        self._retired_regressor_fits = 0
        self._retired_regressor_hits = 0
        self.caches.estimators.on_evict = self._retire_estimator
        # bound plans found, built and dropped, under the lock that binds them
        self._plan_lock = threading.Lock()
        self._plan_counts = [0, 0, 0]

    def _register_collectors(self) -> None:
        """Scrape-time callbacks over derived state (zero steady-state cost)."""
        m = self.metrics
        m.register_callback(
            "hyper_uptime_seconds",
            "Seconds since the service started",
            lambda: time.time() - self._started_at,
        )
        m.register_callback(
            "hyper_generation",
            "Latest committed database generation",
            lambda: self.versions.latest.generation,
        )
        m.register_callback(
            "hyper_inflight_peak",
            "High-water mark of concurrent tracked executions",
            lambda: self._m_inflight.peak,
        )
        mvcc = {
            "hyper_mvcc_commits_total": ("commits", "counter"),
            "hyper_mvcc_retired_total": ("retired", "counter"),
            "hyper_mvcc_live_snapshots": ("live_snapshots", "gauge"),
            "hyper_mvcc_pinned_readers": ("pinned_readers", "gauge"),
        }
        for name, (stat_key, kind) in mvcc.items():
            m.register_callback(
                name,
                f"MVCC version store: {stat_key}",
                lambda key=stat_key: self.versions.stats()[key],
                kind=kind,
            )
        for name, stat_key, kind in (
            ("hyper_cache_hits_total", "hits", "counter"),
            ("hyper_cache_misses_total", "misses", "counter"),
            ("hyper_cache_evictions_total", "evictions", "counter"),
            ("hyper_cache_entries", "size", "gauge"),
        ):
            m.register_callback(
                name,
                f"Per-cache {stat_key} (labelled by cache)",
                lambda key=stat_key: [
                    ({"cache": cache_name}, stats[key])
                    for cache_name, stats in self._cache_stats().items()
                ],
                kind=kind,
            )
        for name, stat_key, kind in (
            ("hyper_pool_broadcasts_total", "n_broadcasts", "counter"),
            ("hyper_pool_updates_total", "n_updates", "counter"),
            ("hyper_pool_shards", "n_shards", "gauge"),
        ):
            m.register_callback(
                name,
                f"Shard pool {stat_key} (absent while no pool is running)",
                lambda key=stat_key: self._pool_stats(lambda stats: stats[key]),
                kind=kind,
            )
        m.register_callback(
            "hyper_shm_bytes",
            "Live shared-memory snapshot bytes owned by the shard pool",
            lambda: self._pool_stats(lambda stats: (stats["shm"] or {}).get("live_bytes", 0)),
        )
        m.register_callback(
            "hyper_broadcast_bytes_total",
            "Bytes crossing the shard-worker queues (both directions)",
            lambda: self._pool_stats(lambda s: s["bytes_to_workers"] + s["bytes_from_workers"]),
            kind="counter",
        )

    def _pool_stats(self, read: Callable[[dict], Any] = lambda stats: stats) -> Any:
        """``read`` of the running pool's stats (by default, those); ``None`` while
        no pool runs, which leaves a pool metric absent."""
        with self._pool_lock:
            pool = self._pool
        return None if pool is None else read(pool.stats())

    def _capacity_hint(self) -> int:
        """Shard count in ``processes`` mode, worker threads otherwise."""
        if self.execution == "processes":
            return self.n_shards
        return self.max_workers or default_max_workers()

    def _on_retire_snapshot(self, snapshot) -> None:
        """MVCC retire hook: free the retired generation's shm segments.

        Runs under the version store's lock, so it must stay re-entrancy-free:
        the pool reference is read directly (never via ``_pool_lock``, which
        ``close()`` holds while commits may retire concurrently) and
        :meth:`~repro.shard.pool.ShardPool.release_snapshot` only touches the
        segment manager's leaf lock.  Missing the pool here (a benign race
        with teardown) just defers the unlink to the pool's ``close_all``.
        """
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.release_snapshot(snapshot.generation)
            except Exception:  # noqa: BLE001 - never fail a retire over cleanup
                pass

    def _retire_estimator(self, key: Hashable, estimator: PostUpdateEstimator) -> None:
        counters = estimator.regressor_cache_stats
        with self._retired_lock:
            self._retired_regressor_fits += counters["fits"]
            self._retired_regressor_hits += counters["hits"]

    # -- generation snapshot ---------------------------------------------------------------

    @property
    def _state(self) -> _EngineState:
        """The latest committed engine state (unpinned peek).

        Queries must not read this repeatedly — they pin a snapshot once via
        :meth:`pinned` and pass the pinned state explicitly, which is
        what makes every answer attributable to exactly one committed
        generation.
        """
        return self.versions.latest.state

    def retain(self, generation: int | None = None) -> Snapshot:
        """Pin the latest committed snapshot — or the named live ``generation``
        (:class:`LookupError` otherwise) — until :meth:`release`; the
        generation stays answerable (``execute(..., generation=g)``) meanwhile."""
        return self.versions.acquire(generation)

    def release(self, snapshot: Snapshot) -> None:
        """Unpin a snapshot :meth:`retain` returned."""
        self.versions.release(snapshot)

    @contextmanager
    def pinned(self, generation: int | None = None) -> Iterator[_EngineState]:
        """:meth:`retain` for the block's duration (one query's whole execution),
        yielding the pinned engine state."""
        with obs_trace.span("snapshot.pin") as pin_span:
            snapshot = self.retain(generation)
            if pin_span is not None:
                pin_span.meta["generation"] = snapshot.generation
        try:
            yield snapshot.state
        finally:
            self.release(snapshot)

    @property
    def database(self) -> Database:
        return self._state.database

    @property
    def causal_dag(self) -> CausalDAG | None:
        return self._state.causal_dag

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def relation_generations(self) -> dict[str, int]:
        """Per-relation generation counters (copy; see fine-grained invalidation)."""
        return dict(self._state.relation_generations)

    # -- parsing and fingerprinting ------------------------------------------------------

    def parse(self, query_text: str) -> Query:
        """Parse SQL-extension text into a query object (no execution)."""
        return parse_query(query_text)

    def _as_query(self, query: str | Query) -> Query:
        if isinstance(query, str):
            return self.parse(query)
        from ..api.builder import as_query_object  # lazy: api sits above service

        return as_query_object(query)

    def _keyed(self, query: str | Query, eager: bool = False) -> tuple[Query, Hashable]:
        """``query`` parsed, and a what-if text's key (:func:`parse_keyed`) or ``None``."""
        if not isinstance(query, str):
            return self._as_query(query), None
        parsed, key = parse_keyed(query, eager)
        return parsed, key if isinstance(parsed, WhatIfQuery) else None

    def fingerprint(self, query: str | Query) -> PlanFingerprint:
        """The canonical plan fingerprint of ``query`` at the current generation."""
        return self._fingerprint(self._state, self._as_query(query))

    def _fingerprint(self, state: _EngineState, query: Query) -> PlanFingerprint:
        return fingerprint_query(
            query,
            self.config,
            dag_identity=state.dag_identity,
            reads=partial(state.plan_generations, query),
        )

    # -- cached shared state ---------------------------------------------------------------

    def _plan_view(
        self, state: _EngineState, use: UseSpec
    ) -> tuple[Relation, CausalDAG | None]:
        """The materialised relevant view and its DAG projection (one cache entry)."""
        _spec, key, columns, _generations, _sources = state.view_columns(use)
        return self.caches.views.get_or_create(
            key,
            lambda: (
                use.build(state.database),
                build_view_dag(state.causal_dag, use, state.database),
            ),
            tags=columns,
        )

    def _plan_kernels(self, state: _EngineState, use: UseSpec) -> KernelCache:
        """The kernel cache shared by every plan over ``use``'s view, read at ``state``:
        one store per ``Use`` spec and view length, across commits, its entries
        keyed by the generations of the view columns they read (rows by position)."""
        spec, _view_key, _columns, generations, sources = state.view_columns(use)
        key = (len(state.database[use.base_relation]), state.dag_identity, spec)
        return self.caches.kernels.get_or_create(key, KernelCache).at(generations, sources)

    def _blocks(self, state: _EngineState) -> tuple[dict, int] | None:
        if state.causal_dag is None or not self.config.use_blocks:
            return None
        key, columns = state.blocks_key()
        return self.caches.blocks.get_or_create(
            (key, state.dag_identity),
            lambda: block_labels(state.database, state.causal_dag),
            tags=columns,
        )

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
        if isinstance(query, (list, tuple)):
            with self.pinned():
                return [self.prepare(entry) for entry in query]
        parsed, key = self._keyed(query, eager=True)
        with self.pinned() as state:
            fingerprint = self._fingerprint(state, parsed)
            if isinstance(parsed, WhatIfQuery):
                # exactly what the first execute builds, kernel entry included
                return self._plan(state, parsed, fingerprint, key)
            view, _view_dag, _kernels, estimator = self._how_to_plan(state, parsed, fingerprint)
            return BoundPlan(fingerprint, view, estimator)

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
        :meth:`answer` of the one query, with its text key and its text.
        """
        with obs_trace.activate(trace):
            with obs_trace.span("parse"):
                parsed, key = self._keyed(query)
            with self._track("query"):
                (outcome,) = self.answer(
                    [parsed], keys=[key], texts=[query], exhaustive=exhaustive,
                    generation=generation,
                )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _record_completion(
        self, query: Query, text: str | Query, elapsed: float, fingerprint: PlanFingerprint
    ) -> None:
        """Feed the slow-query log; unparses a query object only when tripped."""
        if elapsed < self.slow_log.threshold_seconds:
            return
        if not isinstance(text, str):
            try:
                text = unparse(query)
            except Exception:  # noqa: BLE001 - the log is best-effort
                text = repr(query)[:200]
        active = obs_trace.current_trace()
        if self.slow_log.record(
            str(fingerprint.digest),
            elapsed,
            query=text,
            request_id=active.request_id if active is not None else "",
            kind=fingerprint.kind,
        ):
            self._m_slow.inc()

    def _result_key(
        self, state: _EngineState, fingerprint: PlanFingerprint, exhaustive: bool
    ) -> Hashable:
        # Block metadata reads the labelling's columns.  The execution layout
        # is fixed per service, and so is this cache.
        return HashedKey((
            "result",
            fingerprint.kind,
            fingerprint.query_key,
            state.causal_dag is not None and self.config.use_blocks and state.blocks_key()[0],
            exhaustive,
        ))

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
        propagates at the end.
        """
        parsed: list[Query | Exception] = []
        for query in queries:
            try:
                parsed.append(self._as_query(query))
            except Exception as error:  # noqa: BLE001 - captured per query
                if not return_errors:
                    raise
                parsed.append(error)
        self._m_batches.inc()
        # units=0: per-query in-flight is tracked around each group's
        # evaluation or the pool crossing; the batch wrapper contributes only
        # its latency sum.
        with self._track("batch", units=0):
            results = self.answer(
                parsed, max_workers=max_workers or self.max_workers or default_max_workers()
            )
        if not return_errors:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    def answer(
        self,
        queries: Sequence[Query | Exception],
        *,
        keys: Sequence[Hashable] | None = None,
        texts: Sequence[str | Query] | None = None,
        exhaustive: bool = False,
        generation: int | None = None,
        max_workers: int | None = None,
        around_group: Callable[[Callable[[], list]], list] | None = None,
    ) -> list[Result | Exception]:
        """Answer parsed queries under one pinned snapshot, each outcome in its slot.

        The one answer path: every query, alone or in a batch, is
        fingerprinted, bound to its plan, served from or stored to the result
        cache and logged as a completion here.  Exceptions among ``queries``
        pass through, and a failing query yields the exception
        :meth:`execute` raises for it.  Result-cache hits are served first.
        The misses cross the shard pool as one step in ``processes`` mode,
        else each plan group
        (:attr:`~repro.service.fingerprint.PlanFingerprint.variant_key`) is a
        step, its plan bound under ``("group", variant_key)``; up to
        ``max_workers`` steps run at a time on a thread pool.
        ``around_group(evaluate)`` wraps each step and returns its outcomes —
        a pool worker times it, a cluster node checks its request deadline
        first; what it raises is the outcome of each of the step's queries.

        ``keys`` and ``texts`` are :meth:`execute`'s, one per query: the text
        key a what-if's plan is bound under (``None``: unbound), so a text of
        a bound key skips its fingerprint, and the caller's text for the slow
        log.  A call with ``keys`` is tracked whole by its caller, not per step.
        """
        results: list[Result | Exception] = list(queries)
        texts = queries if texts is None else texts
        self._m_queries.inc(sum(1 for query in queries if not isinstance(query, Exception)))
        with self.pinned(generation) as state:
            started = time.perf_counter()
            entries = []
            for index, query in enumerate(queries):
                if isinstance(query, Exception):
                    continue
                key = None if keys is None else keys[index]
                plan = None if key is None else state.plans.get(key)
                with obs_trace.span("fingerprint"):
                    fingerprint = plan.bind(query) if plan else self._fingerprint(state, query)
                entries.append((index, query, fingerprint, key, plan))
            caching = self._result_cache_enabled
            with obs_trace.span("cache.result") if caching else nullcontext() as cache_span:
                # a plan its text key found counts one hit: in _plan, else here
                found = missed = 0
                groups: dict[Hashable, tuple[Hashable, list]] = {}
                for index, query, fingerprint, key, plan in entries:
                    result_key = None
                    if caching:
                        result_key = self._result_key(state, fingerprint, exhaustive)
                        cached = self.caches.results.get(result_key)
                        if cached is not None:
                            found += plan is not None
                            results[index] = cached
                            elapsed = time.perf_counter() - started
                            self._record_completion(query, texts[index], elapsed, fingerprint)
                            continue
                    missed += plan is not None
                    group = fingerprint.variant_key
                    bind = ("group", group) if keys is None else key
                    groups.setdefault(group, (bind, []))[1].append(
                        (index, query, fingerprint, result_key)
                    )
                steps = list(groups.values())
                pool = self._crossing(state, sum(len(g) for _, g in steps)) if steps else None
                if pool is not None:  # one crossing, binding nothing; workers group their shares
                    steps = [(None, [entry for _bind, group in steps for entry in group])]
                    found += missed
                step = partial(self._step, state, exhaustive, pool, around_group, keys is None)
                workers = min(max_workers or 1, len(steps))
                if workers > 1:
                    with ThreadPoolExecutor(max_workers=workers) as threads:
                        ran = list(threads.map(step, steps))
                else:
                    ran = [step(entry) for entry in steps]
                for (_bind, group), (outcomes, elapsed) in zip(steps, ran):
                    for (index, query, fingerprint, result_key), outcome in zip(group, outcomes):
                        results[index] = outcome
                        self._record_completion(query, texts[index], elapsed, fingerprint)
                        if result_key is not None and not isinstance(outcome, Exception):
                            tags = _relations(fingerprint.columns)
                            self.caches.results.put(result_key, outcome, tags=tags)
                if found:
                    self._plan_hit(found)
            if cache_span is not None:
                cache_span.meta["hit"] = not steps
        return results

    def _step(
        self,
        state: _EngineState,
        exhaustive: bool,
        pool: "ShardPool | None",
        around_group: Callable[[Callable[[], list]], list] | None,
        tracked: bool,
        step: tuple[Hashable, list[tuple[int, Query, PlanFingerprint, Hashable]]],
    ) -> tuple[list[Result | Exception], float]:
        """One step of :meth:`answer` and how long it took: a plan group, its
        plan bound under ``bind``, or a whole crossing (tracked as one shard batch)."""
        bind, entries = step
        n = len(entries)
        evaluate = partial(self._evaluate, state, entries, exhaustive, pool, bind)
        # in process each query waits its group out
        track = ("query", n, n) if pool is None else ("shard_batch", n, 1)
        started = time.perf_counter()
        with self._track(*track) if tracked else nullcontext():
            with obs_trace.span("execute") as span:
                if span is not None:
                    span.meta["bound"] = bind is not None and bind in state.plans
                try:
                    outcomes = evaluate() if around_group is None else around_group(evaluate)
                except Exception as error:  # noqa: BLE001 - each of the step's queries'
                    outcomes = [error] * n
        return outcomes, time.perf_counter() - started

    def _crossing(self, state: _EngineState, n_queries: int) -> "ShardPool | None":
        """The shard pool misses cross in ``processes`` mode; ``None`` for a reader
        pinned to a snapshot it has moved past, which evaluates its pinned engines
        in-process (bitwise the pool's answers) rather than pause or error."""
        if self.execution != "processes":
            return None
        pool = self._pool_for(state)
        if pool is None:
            self._m_pinned_fallbacks.inc(n_queries)
        return pool

    def _evaluate(
        self,
        state: _EngineState,
        entries: Sequence[tuple[int, Query, PlanFingerprint, Hashable]],
        exhaustive: bool,
        pool: "ShardPool | None",
        bind: Hashable,
    ) -> list[Result | Exception]:
        """The outcomes of a batch's misses through ``pool``, or of one plan group:
        each distinct query once, a group's what-ifs in one stacked call — or, if
        that fails, each alone, so a failure is its own query's, own envelope.
        A what-if group runs its plan bound under ``bind`` (:meth:`_plan`)."""
        if pool is not None:
            return pool.run_batch(
                [query for _index, query, _fingerprint, _key in entries],
                return_errors=True,
                fingerprints=[fingerprint for _i, _q, fingerprint, _k in entries],
                exhaustive=exhaustive,
            )
        slot_of: dict[Hashable, int] = {}
        slots = [slot_of.setdefault(entry[2].parameter_key, len(slot_of)) for entry in entries]
        members = list(dict(zip(slots, entries)).values())

        def evaluate(members: Sequence[tuple[int, Query, PlanFingerprint, Hashable]]) -> list:
            _index, query, fingerprint, _key = members[0]
            if isinstance(query, HowToQuery):  # a how-to is a group of its own
                return [self._execute_how_to(state, query, fingerprint, exhaustive=exhaustive)]
            plan = self._plan(state, query, fingerprint, bind)
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

    def _plan_estimator(
        self, fingerprint: PlanFingerprint, build: Any
    ) -> PostUpdateEstimator:
        """The plan's fitted estimator: ``build()`` on a miss, cached by plan."""

        def _fit() -> PostUpdateEstimator:
            with obs_trace.span("estimator.fit", plan=str(fingerprint.digest)):
                return build()

        return self.caches.estimators.get_or_create(
            fingerprint.estimator_key, _fit, tags=fingerprint.columns
        )

    def _plan(
        self, state: _EngineState, query: WhatIfQuery, fingerprint: PlanFingerprint, key: Hashable
    ) -> BoundPlan:
        """``query``'s plan at ``state``: the one bound under ``key``, else built
        and bound under ``key`` (unless ``None``); a plan that fails binds nothing."""
        plan = None if key is None else state.plans.get(key)
        if plan is not None:
            self._plan_hit()
            return plan
        prepared, estimator = self._what_if_plan(state, query, fingerprint)
        plan = BoundPlan(fingerprint, prepared.view, estimator, prepared)
        if key is not None:
            with self._plan_lock:
                self._plan_counts[1] += 1
                if len(state.plans) >= _BOUND_PLANS:
                    del state.plans[next(iter(state.plans))]
                    self._plan_counts[2] += 1
                state.plans[key] = plan
        return plan

    def _plan_hit(self, n: int = 1) -> None:
        with self._plan_lock:
            self._plan_counts[0] += n

    def _what_if_plan(
        self, state: _EngineState, query: WhatIfQuery, fingerprint: PlanFingerprint
    ) -> tuple[PreparedWhatIf, PostUpdateEstimator | None]:
        view, view_dag = self._plan_view(state, query.use)
        prepared = state.whatif.prepare(
            query,
            view=view,
            blocks=self._blocks(state),
            view_dag=view_dag,
            kernels=self._plan_kernels(state, query.use),
        )
        if self.config.ignores_dependencies:
            return prepared, None
        return prepared, self._plan_estimator(
            fingerprint, lambda: state.whatif.build_estimator(query, prepared)
        )

    def _how_to_plan(
        self, state: _EngineState, query: HowToQuery, fingerprint: PlanFingerprint
    ) -> tuple[Relation, CausalDAG | None, KernelCache, PostUpdateEstimator]:
        """A how-to's view, its DAG projection and kernels, validated before
        anything is cached, and its fitted estimator."""
        view, view_dag = self._plan_view(state, query.use)
        validate_query(query, view, view_dag)
        kernels = self._plan_kernels(state, query.use)
        estimator = self._plan_estimator(
            fingerprint,
            lambda: state.howto.build_estimator(
                query, view=view, view_dag=view_dag, kernels=kernels
            ),
        )
        return view, view_dag, kernels, estimator

    def _execute_how_to(
        self, state: _EngineState, query: HowToQuery, fingerprint: PlanFingerprint, *, exhaustive: bool
    ) -> HowToResult:
        view, view_dag, kernels, estimator = self._how_to_plan(state, query, fingerprint)
        prepared = state.howto.prepare(
            query, view=view, estimator=estimator, view_dag=view_dag, kernels=kernels
        )
        candidates = self.caches.candidates.get_or_create(
            ("candidates", fingerprint.query_key),
            lambda: state.howto.enumerate_candidates(
                query, prepared.view, prepared.scope_mask
            ),
            tags=fingerprint.columns,
        )
        evaluate = state.howto.evaluate_exhaustive if exhaustive else state.howto.evaluate
        return evaluate(query, prepared=prepared, candidates=candidates)

    # -- shard pool (processes mode) -------------------------------------------------------

    def _pool_for(self, state: _EngineState) -> "ShardPool | None":
        """The persistent shard pool, iff it serves ``state``'s generation.

        The pool always tracks the *latest* committed generation —
        ``update_database`` moves it forward in place
        (:meth:`~repro.shard.pool.ShardPool.apply_update`), so the worker
        processes live across commits and the database crosses the process
        boundary once per generation, never per query.  Returns ``None`` for
        a reader pinned to a superseded snapshot (the caller evaluates
        in-process from its pinned state) — a commit therefore never pauses
        or errors an in-flight reader.  Lazily started on the first call
        whose ``state`` is the latest generation.
        """
        from ..shard.pool import ShardPool

        with self._pool_lock:
            if self._pool is not None:
                if self._pool.generation == state.generation:
                    return self._pool
                # The pool serves a different (newer) generation than this
                # reader's pinned snapshot: straggler, falls back in-process.
                return None
            if state.generation != self.versions.latest.generation:
                return None
            self._pool = ShardPool(
                state.database,
                state.causal_dag,
                self.config,
                n_shards=self.n_shards,
                generation=state.generation,
            ).start()
            return self._pool

    def _refresh_pool(
        self,
        state: _EngineState,
        changed: frozenset[str],
        *,
        replace_dag: bool = False,
        clear_caches: bool = False,
    ) -> None:
        """Move the running shard pool to ``state``'s generation in place.

        Ships only the changed columns of ``state``'s database to the
        existing worker processes; the workers are never restarted, so
        readers racing the commit keep their answers.  ``replace_dag`` ships
        ``state``'s causal DAG as the workers' new background knowledge and
        ``clear_caches`` drops every worker plan cache — the in-place forms
        of :meth:`update_causal_dag` and :meth:`invalidate`.  If the in-place
        update fails for any reason the pool is closed and the next
        latest-generation query rebuilds it lazily — readers pinned to older
        snapshots fall back in-process either way.
        """
        with self._pool_lock:
            pool = self._pool
            if pool is None:
                return  # nothing running (or threads mode); lazy start will use the new state
            try:
                pool.apply_update(
                    state.database,
                    changed,
                    generation=state.generation,
                    causal_dag=state.causal_dag if replace_dag else None,
                    replace_dag=replace_dag,
                    clear_caches=clear_caches,
                )
            except Exception:
                pool.close()
                self._pool = None
                raise

    def start_pool(self) -> None:
        """Eagerly start the shard pool for the current generation.

        Optional — the pool starts lazily on the first ``processes``-mode
        query — but starting it *before* spawning request-handler threads
        lets the pool use the cheap ``fork`` start method safely (forking a
        multithreaded parent risks cloning held locks); ``repro serve`` calls
        this before binding the HTTP server.  No-op in ``threads`` mode.
        """
        if self.execution == "processes":
            self._pool_for(self._state)

    def close(self) -> None:
        """Release the shard pool (idempotent; threads mode has nothing to close)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "HypeRService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- invalidation ---------------------------------------------------------------------

    def invalidate(self) -> None:
        """Bump every generation counter and drop every cached plan component.

        A full invalidation moves the running shard pool forward *in place*:
        the workers stay alive (their process state and shm snapshots
        survive) but every worker plan cache is dropped alongside the
        parent's.  Readers already pinned to older snapshots keep executing
        in-process from their pinned engines.  Only if the in-place update
        fails is the pool closed for a lazy rebuild.
        """
        self._recommit(None, replace_dag=False)

    def update_database(self, database: Database) -> Commit:
        """Commit a new database snapshot with column-level invalidation.

        Columns are compared by object identity against the current snapshot
        (:func:`~repro.relational.relation.changed_attributes`; build the new
        database with ``service.database.with_relation(relation.with_column(
        ...))`` so unchanged columns are the *same* objects): only the changed
        columns' generations are bumped, with their relations', and every
        cache key holds the generations of the columns its entry reads, so
        what reads none of them stays warm.

        The commit is MVCC: the new snapshot is installed atomically and
        in-flight readers keep their pinned (old) snapshot until they finish —
        they are never paused, never see a blend, and never observe a shard
        pool teardown (the running pool is moved forward in place, shipping
        only the changed columns to the workers).  A commit that changes
        nothing (every column identical by identity) is a no-op: no
        generation bump, no cache eviction, and the pool stays untouched.

        Returns the set of relation names whose generation was bumped (empty
        for a no-op commit) as a :class:`~repro.service.versions.Commit`
        carrying the generation this commit installed (for a no-op, the
        current one).
        """
        with self._commit_lock:
            state = self._state
            old = state.database
            changed_columns: set[Column] = set()
            for name in {*old.relation_names, *database.relation_names}:
                before = old[name] if name in old else None
                after = database[name] if name in database else None
                if before is after:
                    continue
                came = () if after is None else changed_attributes(before, after)
                gone = () if before is None else before.attribute_names
                gone = [a for a in gone if after is None or a not in after]
                changed_columns.update((name, a) for a in (*came, *gone))
            # a relation has a key, so one added or removed changes columns too
            changed = {name for name, _ in changed_columns}
            if not changed:
                self._m_noop_commits.inc()
                return Commit((), state.generation)
            relations = dict(state.relation_generations)
            columns = dict(state.column_generations)
            for name in changed:
                relations[name] = relations.get(name, 0) + 1
            for column in changed_columns:
                columns[column] = columns.get(column, 0) + 1
            same_schema = old.foreign_keys == database.foreign_keys and all(
                name in old and name in database and old[name].schema == database[name].schema
                for name in changed
            )
            new_state = _EngineState.build(
                state.generation + 1,
                database,
                state.causal_dag,
                self.config,
                relations,
                columns,
                state.reads if same_schema else None,
            )
            self.versions.commit(new_state, generation=new_state.generation)
            # Only frees memory: an entry reading a changed column has a key
            # the new generation never asks for (answers go with their relations).
            self.caches.evict_tagged(changed_columns | changed)
            self._refresh_pool(new_state, frozenset(changed))
            return Commit(changed, new_state.generation)

    def update_relation_columns(self, assignments: dict[str, dict[str, Any]]) -> Commit:
        """Atomically overwrite columns: ``{relation: {attribute: values}}``.

        The read-modify-write runs under the commit lock, so concurrent
        callers (e.g. two ``/v1/update`` requests) serialize and neither can
        lose the other's columns; the resulting :meth:`update_database`
        commit (see :func:`with_columns`) bumps only the relations named here.
        """
        with self._commit_lock:
            return self.update_database(with_columns(self.database, assignments))

    def update_causal_dag(self, causal_dag: CausalDAG | None) -> None:
        """Swap in new causal background knowledge; invalidates cached state.

        The running shard pool is moved forward in place: workers receive
        the new DAG, rebuild their engines against it, and drop their plan
        caches — no process restart, no shm rebuild.  Only if the in-place
        update fails is the pool closed for a lazy rebuild.
        """
        self._recommit(causal_dag, replace_dag=True)

    def _recommit(self, causal_dag: CausalDAG | None, *, replace_dag: bool) -> None:
        """Commit the same database as a new generation, every cache dropped: under
        ``causal_dag`` if ``replace_dag`` (the pool's workers get it too), else
        under the current DAG.  A failed in-place pool update is logged, not raised."""
        with self._commit_lock:
            state = self._state
            new_state = _EngineState.build(
                state.generation + 1,
                state.database,
                causal_dag if replace_dag else state.causal_dag,
                self.config,
                {name: gen + 1 for name, gen in state.relation_generations.items()},
                # same columns, same data: keys stay valid (the DAG identity is in every key)
                state.column_generations,
            )
            self.versions.commit(new_state, generation=new_state.generation)
            self.caches.clear()
            try:
                self._refresh_pool(
                    new_state, frozenset(), replace_dag=replace_dag, clear_caches=True
                )
            except Exception:  # noqa: BLE001 - neither caller raises
                # _refresh_pool already closed the pool; the next query
                # rebuilds it against the new state
                logging.getLogger(__name__).warning(
                    "in-place pool %s failed; the pool was closed and will rebuild lazily",
                    "DAG swap" if replace_dag else "invalidation",
                    exc_info=True,
                )

    # -- instrumentation -------------------------------------------------------------------

    def _cache_stats(self) -> dict[str, dict[str, Any]]:
        """Each cache's row, the latest snapshot's bound plans' (``plans``) included."""
        with self._plan_lock:
            hits, misses, evictions = self._plan_counts
        plans = CacheStats("plans", _BOUND_PLANS, len(self._state.plans), hits, misses, evictions)
        return {**self.caches.stats(), "plans": plans.as_dict()}

    def stats(self) -> dict[str, Any]:
        """Service counters plus per-cache and regressor-level statistics.

        ``regressors.fits``/``hits`` are monotonic totals over the service's
        life: counters of estimators evicted from the LRU (or dropped by an
        invalidation) are folded into running sums, not lost.  In
        ``processes`` mode, fits inside shard workers are *not* included —
        the per-worker caches live in other processes; ``pool`` reports the
        pool's own counters instead.
        """
        with self._retired_lock:
            regressor_fits = self._retired_regressor_fits
            regressor_hits = self._retired_regressor_hits
        regressors_cached = 0
        for estimator in self.caches.estimators.values():
            counters = estimator.regressor_cache_stats
            regressor_fits += counters["fits"]
            regressor_hits += counters["hits"]
            regressors_cached += counters["cached"]
        pool_stats = self._pool_stats()
        serving = self.serving_signals()
        versions = self.versions.stats()
        latest = self._state
        versions["noop_commits"] = int(self._m_noop_commits.value)
        versions["pinned_fallbacks"] = int(self._m_pinned_fallbacks.value)
        return {
            "serving": serving,
            "generation": latest.generation,
            "relation_generations": dict(latest.relation_generations),
            "versions": versions,
            "execution": self.execution,
            "n_queries": int(self._m_queries.value),
            "n_batches": int(self._m_batches.value),
            "uptime_seconds": time.time() - self._started_at,
            "caches": self._cache_stats(),
            "regressors": {
                "fits": regressor_fits,
                "hits": regressor_hits,
                "cached": regressors_cached,
            },
            "pool": pool_stats,
            "slow_queries": {
                "entries": len(self.slow_log),
                "recorded": int(self._m_slow.value),
                "threshold_seconds": self.slow_log.threshold_seconds,
            },
            "clients": self.client_stats(),
            **({"jobs": self.jobs.stats()} if self.jobs is not None else {}),
        }
