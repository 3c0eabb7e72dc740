"""The plan compiler: the first two of the paper's three steps — build the
relevant view, fit the backdoor-adjusted estimator — for a
:class:`~repro.service.session.HypeRService`, at one
:class:`~repro.service.state.EngineState`, over the service's caches.  A
what-if's plan is a :class:`BoundPlan`, bound at its snapshot under its plan
group by the first text of the group, so later texts of the group skip both;
a text key spares only the fingerprint (``docs/service.md``, "Bound plans").
Its figure table reports the cache and regressor rows of ``stats()`` and the
``hyper_cache_*`` series.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Hashable

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.estimator import PostUpdateEstimator, build_view_dag
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.results import HowToResult
from ..core.whatif import PreparedWhatIf, validate_query
from ..obs import trace as obs_trace
from ..obs.metrics import Figure, Reported
from ..probdb.blocks import block_labels
from ..relational.columnar import KernelCache
from ..relational.relation import Relation
from ..relational.view import UseSpec
from .cache import CacheStats, HashedKey, QueryCaches
from .fingerprint import PlanFingerprint, fingerprint_query
from .state import EngineState

__all__ = ["BoundPlan", "PlanCompiler"]

Query = WhatIfQuery | HowToQuery

#: bound plans one snapshot keeps, by plan group, and fingerprints, by text key;
#: the oldest dropped first, and they go with their snapshot
_BOUND_PLANS = 64


@dataclass(eq=False, repr=False, slots=True)
class BoundPlan:
    """A plan at one snapshot: what :meth:`HypeRService.prepare` returns, and what a
    what-if text of its plan group reuses (``docs/service.md``, "Bound plans").

    ``what_if`` is a what-if's full-view preparation (scope mask, disjuncts,
    block labels), exactly what its execution evaluates; ``None`` for a how-to.
    """

    fingerprint: PlanFingerprint
    view: Relation
    estimator: PostUpdateEstimator | None
    what_if: PreparedWhatIf | None = None


def _per_cache(key: str, metric: str, kind: str) -> Figure:
    """The series of ``key`` in each :meth:`PlanCompiler.cache_stats` row, labelled by cache."""
    return Figure(
        None,
        lambda compiler: {name: row[key] for name, row in compiler.cache_stats().items()},
        metric,
        f"Per-cache {key} (labelled by cache)",
        kind,
        "cache",
    )


class PlanCompiler(Reported):
    """Fingerprints and plans of one service's queries, over its caches.

    ``latest()`` is the service's latest snapshot, whose bound plans
    :meth:`cache_stats` and the ``hyper_cache_*`` series report.
    """

    FIGURES = (
        _per_cache("hits", "hyper_cache_hits_total", "counter"),
        _per_cache("misses", "hyper_cache_misses_total", "counter"),
        _per_cache("evictions", "hyper_cache_evictions_total", "counter"),
        _per_cache("size", "hyper_cache_entries", "gauge"),
    )

    def __init__(
        self, config: EngineConfig, caches: QueryCaches, latest: Callable[[], EngineState]
    ) -> None:
        self.config = config
        self.caches = caches
        self._latest = latest
        # bound plans found, built and dropped, under the lock that binds them;
        # and the regressor fits and hits of estimators the cache dropped, so
        # the totals stay monotonic (the eviction callback holds the cache lock)
        self._lock = threading.Lock()
        self._counts = [0, 0, 0]
        self._retired = [0, 0]
        caches.estimators.on_evict = self._retire_estimator

    def fingerprint(self, state: EngineState, query: Query) -> PlanFingerprint:
        return fingerprint_query(
            query,
            self.config,
            dag_identity=state.dag_identity,
            reads=partial(state.plan_generations, query),
        )

    def keyed(self, state: EngineState, query: Query, key: Hashable) -> PlanFingerprint:
        """``query``'s fingerprint at ``state``, taken once per text ``key`` per
        snapshot (``EngineState.memo``): a later text of the key binds it
        (:meth:`PlanFingerprint.bind`).  ``None``: taken each time.  This is all
        a text key spares; the plan is found by plan group (:meth:`plan`)."""
        if key is None:
            return self.fingerprint(state, query)
        texts = state.memo.setdefault("texts", {})
        found = texts.get(key)
        if found is not None:
            return found.bind(query)
        fingerprint = self.fingerprint(state, query)
        with self._lock:
            if len(texts) >= _BOUND_PLANS:
                del texts[next(iter(texts))]
            texts[key] = fingerprint
        return fingerprint

    def result_key(
        self, state: EngineState, fingerprint: PlanFingerprint, exhaustive: bool
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

    def prepare(self, state: EngineState, query: Query, key: Hashable, text: bool) -> BoundPlan:
        """``query``'s plan at ``state``, exactly what its first execution builds,
        kernel entry included: its fingerprint taken as :meth:`keyed` takes it
        under its text ``key``, and a what-if ``text``'s plan bound (:meth:`plan`)."""
        fingerprint = self.keyed(state, query, key)
        if isinstance(query, WhatIfQuery):
            return self.plan(state, query, fingerprint, text)
        view, _view_dag, _kernels, estimator = self.how_to_plan(state, query, fingerprint)
        return BoundPlan(fingerprint, view, estimator)

    # -- what-ifs --------------------------------------------------------------------------

    def plan(
        self, state: EngineState, query: WhatIfQuery, fingerprint: PlanFingerprint, text: bool
    ) -> BoundPlan:
        """``query``'s plan at ``state``.  The one binding rule: a what-if that
        arrived as a ``text`` finds the plan bound under its plan group
        (:attr:`PlanFingerprint.variant_key`), else builds it and binds it
        there, whether or not its shape has a text key yet; a query object
        neither finds nor binds one, and a plan that fails binds nothing."""
        group = fingerprint.variant_key if text else None
        plan = None if group is None else state.plans.get(group)
        if plan is not None:
            self.hit()
            return plan
        prepared, estimator = self.what_if_plan(state, query, fingerprint)
        plan = BoundPlan(fingerprint, prepared.view, estimator, prepared)
        if group is not None:
            with self._lock:
                self._counts[1] += 1
                if len(state.plans) >= _BOUND_PLANS:
                    del state.plans[next(iter(state.plans))]
                    self._counts[2] += 1
                state.plans[group] = plan
        return plan

    def bound(self, state: EngineState, fingerprint: PlanFingerprint, text: bool) -> bool:
        """Whether a query of ``fingerprint`` finds its plan bound at ``state``
        (:meth:`plan`'s rule): only a ``text`` can."""
        return bool(text and state.plans and fingerprint.variant_key in state.plans)

    def hit(self, n: int = 1) -> None:
        """Count ``n`` queries that found their bound plan."""
        with self._lock:
            self._counts[0] += n

    def what_if_plan(
        self, state: EngineState, query: WhatIfQuery, fingerprint: PlanFingerprint
    ) -> tuple[PreparedWhatIf, PostUpdateEstimator | None]:
        view, view_dag = self._view(state, query.use)
        prepared = state.whatif.prepare(
            query,
            view=view,
            blocks=self._blocks(state),
            view_dag=view_dag,
            kernels=self._kernels(state, query.use),
        )
        if self.config.ignores_dependencies:
            return prepared, None
        return prepared, self._estimator(
            fingerprint, lambda: state.whatif.build_estimator(query, prepared)
        )

    # -- how-tos ---------------------------------------------------------------------------

    def how_to_plan(
        self, state: EngineState, query: HowToQuery, fingerprint: PlanFingerprint
    ) -> tuple[Relation, CausalDAG | None, KernelCache, PostUpdateEstimator]:
        """A how-to's view, its DAG projection and kernels, validated before
        anything is cached, and its fitted estimator."""
        view, view_dag = self._view(state, query.use)
        validate_query(query, view, view_dag)
        kernels = self._kernels(state, query.use)
        estimator = self._estimator(
            fingerprint,
            lambda: state.howto.build_estimator(
                query, view=view, view_dag=view_dag, kernels=kernels
            ),
        )
        return view, view_dag, kernels, estimator

    def how_to(
        self, state: EngineState, query: HowToQuery, fingerprint: PlanFingerprint, exhaustive: bool
    ) -> HowToResult:
        """A how-to's answer: its plan, its candidates (cached by query), their search."""
        view, view_dag, kernels, estimator = self.how_to_plan(state, query, fingerprint)
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

    # -- shared state, cached ----------------------------------------------------------------

    def _view(self, state: EngineState, use: UseSpec) -> tuple[Relation, CausalDAG | None]:
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

    def _kernels(self, state: EngineState, use: UseSpec) -> KernelCache:
        """The kernel cache shared by every plan over ``use``'s view, read at ``state``:
        one store per ``Use`` spec and view length, across commits, its entries
        keyed by the generations of the view columns they read (rows by position)."""
        spec, _view_key, _columns, generations, sources = state.view_columns(use)
        key = (len(state.database[use.base_relation]), state.dag_identity, spec)
        return self.caches.kernels.get_or_create(key, KernelCache).at(generations, sources)

    def _blocks(self, state: EngineState) -> tuple[dict, int] | None:
        if state.causal_dag is None or not self.config.use_blocks:
            return None
        key, columns = state.blocks_key()
        return self.caches.blocks.get_or_create(
            (key, state.dag_identity),
            lambda: block_labels(state.database, state.causal_dag),
            tags=columns,
        )

    def _estimator(self, fingerprint: PlanFingerprint, build: Any) -> PostUpdateEstimator:
        """The plan's fitted estimator: ``build()`` on a miss, cached by plan."""

        def _fit() -> PostUpdateEstimator:
            with obs_trace.span("estimator.fit", plan=str(fingerprint.digest)):
                return build()

        return self.caches.estimators.get_or_create(
            fingerprint.estimator_key, _fit, tags=fingerprint.columns
        )

    # -- instrumentation -------------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, Any]]:
        """Each cache's row, the latest snapshot's bound plans' (``plans``) included."""
        with self._lock:
            hits, misses, evictions = self._counts
        plans = len(self._latest().plans)
        bound = CacheStats("plans", _BOUND_PLANS, plans, hits, misses, evictions)
        return {**self.caches.stats(), "plans": bound.as_dict()}

    def regressor_stats(self) -> dict[str, int]:
        """Regressor fits and hits over the service's life, and those cached now."""
        with self._lock:
            fits, hits = self._retired
        cached = 0
        for estimator in self.caches.estimators.values():
            counters = estimator.regressor_cache_stats
            fits += counters["fits"]
            hits += counters["hits"]
            cached += counters["cached"]
        return {"fits": fits, "hits": hits, "cached": cached}

    def _retire_estimator(self, key: Hashable, estimator: PostUpdateEstimator) -> None:
        counters = estimator.regressor_cache_stats
        with self._lock:
            self._retired[0] += counters["fits"]
            self._retired[1] += counters["hits"]
