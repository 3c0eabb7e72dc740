"""Post-update conditional estimation via backdoor adjustment.

This module implements the statistical core of Section 3.3 / Appendix A: the
reduction of post-update conditional expectations to observational regressions.

Given the relevant view, the causal DAG projected onto its columns, and a
hypothetical update, the :class:`PostUpdateEstimator`:

1. chooses the adjustment set ``C`` — a minimal backdoor set when a causal
   graph is available (the HypeR variant), or all remaining view attributes
   when it is not (the HypeR-NB variant, Section 2.2 "Background knowledge");
2. fits a regression of the per-tuple target (an indicator for ``Count``, the
   output value times an indicator for ``Sum``/``Avg``) on the update
   attributes plus ``C`` — the paper uses a random forest regressor and so do
   we;
3. evaluates that regression at the *counterfactual* input where every update
   attribute is replaced by its post-update value ``f(Pre(B))`` (Equation 1).

The training rows can be a uniform sample of the view (the HypeR-sampled
variant of Section 5.2).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from ..causal.backdoor import minimal_backdoor_set
from ..causal.dag import CausalDAG
from ..exceptions import IdentificationError, QuerySemanticsError
from ..ml.density import ConditionalMeanRegressor
from ..ml.encoding import ColumnEncoder, FeatureEncoder
from ..ml.linear import GramFactor
from ..relational.columnar import KernelCache
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.view import UseSpec
from .config import EngineConfig

__all__ = ["adjustment_set", "build_view_dag", "PostUpdateEstimator"]

#: Bound on fitted regressors kept per estimator.  The service layer shares
#: one estimator across every ``For``-literal variant of a plan, so without a
#: cap a long sweep (e.g. thousands of thresholds) would accumulate a fitted
#: regressor per literal inside one hot cache entry.  A single evaluation of
#: one plan touches up to ``2 * (2^6 - 1) = 126`` keys (count and sum targets
#: per disjunct subset at the engine's 6-disjunct maximum), so the bound must
#: comfortably exceed that or repeated-template workloads would thrash.
_MAX_CACHED_REGRESSORS = 256


def build_view_dag(
    dag: CausalDAG | None, use: UseSpec, database: Database
) -> CausalDAG | None:
    """Project the database-level causal DAG onto the columns of the relevant view.

    Attributes of the base relation keep their (unqualified) names; attributes
    of other relations that the ``Use`` clause aggregates are renamed to their
    view column (this is the practical counterpart of the augmented-graph
    construction in Section A.3.2 — the aggregated column inherits the causal
    role of the attribute it summarises).  Nodes that do not appear in the view
    are dropped, as are cross-tuple markers: the view has one row per base
    tuple, so view-level adjustment reasons within a tuple.
    """
    if dag is None:
        return None
    view_columns = set(use.view_attribute_names(database))
    aggregated_by_source: dict[tuple[str, str], str] = {}
    for agg in use.aggregated:
        owner, attribute = database.resolve_attribute(
            agg.attribute if "." in agg.attribute else f"{agg.relation}.{agg.attribute}"
        )
        aggregated_by_source[(owner, attribute)] = agg.name

    def map_node(node: str) -> str | None:
        owner, attribute = database.resolve_attribute(node)
        if (owner, attribute) in aggregated_by_source:
            return aggregated_by_source[(owner, attribute)]
        if owner == use.base_relation and attribute in view_columns:
            return attribute
        if attribute in view_columns and owner != use.base_relation:
            # Unaggregated foreign attribute selected verbatim (rare); keep its name.
            return attribute
        return None

    mapping = {node: map_node(node) for node in dag.nodes}

    def project() -> CausalDAG:
        view_dag = CausalDAG(sorted({name for name in mapping.values() if name is not None}))
        for edge in dag.edges:
            source = mapping.get(edge.source)
            target = mapping.get(edge.target)
            if source is None or target is None or source == target:
                continue
            if not view_dag.has_edge(source, target):
                view_dag.add_edge((source, target))
        return view_dag

    # The projection reads the DAG and where each node lands in the view,
    # never data: one (read-only) view DAG per distinct mapping, which also
    # keeps the backdoor sets memoised on it alive from query to query.
    return dag.memo(("view_dag", tuple(mapping.items())), project)


def adjustment_set(
    attributes: Sequence[str],
    key: Sequence[str],
    view_dag: CausalDAG | None,
    update_attributes: Sequence[str],
    outcome_attributes: Sequence[str],
    config: EngineConfig,
) -> tuple[str, ...]:
    """The adjustment set ``C`` over a view of ``attributes`` keyed by ``key``: a
    minimal backdoor set per (treatment, outcome) pair (HypeR), or every other
    attribute without a DAG (HypeR-NB).  Schema and DAG only, never data."""
    excluded = {*key, *update_attributes, *outcome_attributes}
    everything_else = {a for a in attributes if a not in excluded}
    if config.adjusts_for_all_attributes or view_dag is None:
        return tuple(sorted(everything_else))
    adjustment: set[str] = set()
    for treatment in update_attributes:
        for outcome in outcome_attributes:
            if treatment not in view_dag or outcome not in view_dag:
                continue
            if outcome in (view_dag.ancestors(treatment) | {treatment}):
                continue  # the outcome is upstream: no backdoor needed
            try:
                adjustment |= minimal_backdoor_set(view_dag, treatment, outcome)
            except IdentificationError:
                # Fall back to every eligible attribute for this pair.
                adjustment |= everything_else
    return tuple(sorted(adjustment & everything_else))


@dataclass
class PostUpdateEstimator:
    """Backdoor-adjusted counterfactual regression over the relevant view.

    Parameters
    ----------
    view:
        The pre-update relevant view (one row per base tuple).
    view_dag:
        Causal DAG over view columns, or ``None`` when no background knowledge
        is available.
    update_attributes:
        The attributes being hypothetically updated (treatments ``B``).
    outcome_attributes:
        The attributes whose post-update values the query needs (the output
        attribute plus any attribute referenced with ``Post(...)`` in the
        ``For`` clause).
    config:
        Engine configuration (variant, regressor, sampling).
    kernels:
        The plan's kernel cache (``None`` when cold), where each column's
        encoder, training block and Gram blocks are memoised.
    """

    view: Relation
    view_dag: CausalDAG | None
    update_attributes: Sequence[str]
    outcome_attributes: Sequence[str]
    config: EngineConfig = field(default_factory=EngineConfig)
    rng: np.random.Generator | None = None
    kernels: KernelCache | None = field(default=None, repr=False, compare=False)
    _backdoor: tuple[str, ...] = ()
    _train_indices: np.ndarray | None = field(default=None, repr=False)
    _regressor_cache: OrderedDict[Hashable, ConditionalMeanRegressor] = field(
        default_factory=OrderedDict, repr=False
    )
    _fit_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _pending_fits: dict = field(default_factory=dict, repr=False)
    _n_regressor_fits: int = field(default=0, repr=False)
    _n_regressor_hits: int = field(default=0, repr=False)
    #: this estimator's identity inside shared kernel-cache keys (an ``id()``
    #: could be reused by a successor while the cache entry is still alive)
    _block_token: object = field(default_factory=object, repr=False, compare=False)
    #: Feature attributes and training rows are fixed at construction, so
    #: all regressors share one encoder and one solver factor (``p x p``,
    #: :class:`~repro.ml.linear.GramFactor`; ``None`` for a forest), built with
    #: the first non-constant fit and kept for life.  A linear fit stacks no
    #: design; a forest's serves one burst of cache misses: the first cache hit
    #: empties the slot (an estimator outlives its fits by a generation in the
    #: service's caches, and the design is rows x features of float64).
    _encoder: FeatureEncoder | None = field(default=None, repr=False)
    _factor: GramFactor | None = field(default=None, repr=False)
    _design: np.ndarray | None = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        """Pickle without locks or in-flight fit events (shard/worker boundary).

        Estimator *construction* is deterministic given (view, DAG projection,
        attributes, config), so shard workers normally rebuild estimators
        locally instead of receiving them; this hook keeps the object picklable
        for callers that do ship one (fitted regressors travel along).
        """
        state = self.__dict__.copy()
        state["_fit_lock"] = None
        state["_pending_fits"] = {}
        state["_design"] = None
        state["kernels"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fit_lock = threading.Lock()
        self._pending_fits = {}

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.random_state)
        missing = [a for a in self.update_attributes if a not in self.view.schema]
        if missing:
            raise QuerySemanticsError(
                f"update attributes {missing} are not columns of the relevant view"
            )
        missing = [a for a in self.outcome_attributes if a not in self.view.schema]
        if missing:
            raise QuerySemanticsError(
                f"outcome attributes {missing} are not columns of the relevant view"
            )
        view, dag = self.view, self.view_dag
        self._backdoor = adjustment_set(
            view.attribute_names, view.schema.key, dag, self.update_attributes,
            self.outcome_attributes, self.config,
        )
        self._train_indices = self._choose_training_rows()
        # the training rows in memo keys: all the view's, or this estimator's sample
        self._rows_token = "all" if self.n_training_rows == len(self.view) else self._block_token

    @property
    def backdoor_set(self) -> tuple[str, ...]:
        return self._backdoor

    @property
    def feature_attributes(self) -> tuple[str, ...]:
        return tuple(self.update_attributes) + self._backdoor

    # -- training-sample selection ------------------------------------------------------

    def _choose_training_rows(self) -> np.ndarray:
        n = len(self.view)
        sample_size = self.config.sample_size
        if self.config.is_sampled and sample_size is None:
            sample_size = min(n, 100_000)
        if sample_size is None or sample_size >= n:
            return np.arange(n)
        assert self.rng is not None
        return np.sort(self.rng.choice(n, size=sample_size, replace=False))

    @property
    def n_training_rows(self) -> int:
        assert self._train_indices is not None
        return int(len(self._train_indices))

    def _memo(self, key: tuple, build: Callable[[], Any], reads: Sequence[str]) -> Any:
        """``build()`` over the view columns ``reads`` at the training rows, memoised."""
        if self.kernels is None:
            return build()
        return self.kernels.get((*key, self._rows_token), build, reads)

    def encoder(self, attribute: str) -> ColumnEncoder:
        """``attribute``'s encoder: every regressor of this estimator shares one,
        so one encoding of the update attribute's post values serves the count
        and the sum regressor alike.  Built by the first fit whose target is not
        constant, or here on demand (a constant target reads no encoder)."""
        return self._feature_encoder().encoders[attribute]

    def _feature_encoder(self) -> FeatureEncoder:
        if self._encoder is None:
            fit = lambda a: ColumnEncoder.fit(a, self._training_values(a))  # noqa: E731
            attributes = self.feature_attributes
            self._encoder = FeatureEncoder(
                {a: self._memo(("encoder", a), partial(fit, a), (a,)) for a in attributes},
                attributes,
            )
        return self._encoder

    def predict_rows(
        self,
        regressor: ConditionalMeanRegressor,
        view: Relation,
        updated: Mapping[str, np.ndarray],
        idx: np.ndarray,
        *,
        kernels: KernelCache | None = None,
        idx_token: Hashable | None = None,
        idx_reads: Sequence[str] = (),
    ) -> np.ndarray:
        """Row-stable predictions of ``regressor`` at the rows ``idx`` of ``view``.

        ``view`` is this estimator's view or a row subset of it (a shard's
        local view), and ``updated`` the update attributes' post values at
        ``idx`` for k variants, encoded (:func:`repro.core.whatif.encode_post`): the
        prediction is ``(k, len(idx))``.  What the backdoor
        covariates contribute at a row set — a linear regressor's
        ``intercept + sum of X_c * beta_c``, a forest's encoded blocks — does
        not depend on the update constants: with ``kernels`` it is built once
        per ``idx_token`` (naming the row set, which the view columns
        ``idx_reads`` select) for every parameter variant or how-to candidate
        sharing the cache, without it on the spot, by the same code and bit
        for bit the same
        (:meth:`~repro.ml.density.ConditionalMeanRegressor.predict_at`).
        An encoded block is keyed by its column and the rows its encoder was
        fitted on (every estimator over them shares it), a partial sum by its
        regressor.
        """
        memo = None
        if kernels is not None and idx_token is not None:

            def memo(key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
                if key[0] == "block":  # ("block", attribute): its encoded block at idx
                    key, reads = (*key, self._rows_token), (key[1], *idx_reads)
                else:  # ("base", regressor token)
                    reads = (*self.feature_attributes, *idx_reads)
                return kernels.get((*key, idx_token), build, reads)

        def column_of(attribute: str) -> np.ndarray:
            column = view.column_view(attribute)
            return column if len(idx) == len(column) else column[idx]

        return regressor.predict_at(column_of, len(idx), varying=updated, memo=memo)

    def regressor_for(
        self,
        cache_key: Hashable | None,
        target_factory: Callable[[], np.ndarray],
    ) -> ConditionalMeanRegressor:
        """Fetch or fit the regressor for a training target, keyed by ``cache_key``.

        ``target_factory`` produces the full-view training target and is only
        invoked on a cache miss — a shard partial exploits this to evaluate
        a query over its own rows without touching full-view masks once the
        plan's regressors are fitted (:mod:`repro.shard.local`).

        Keys are structured tuples (target kind, predicate identity, disjunct
        subset) built by the engines — see ``regressor_cache_key`` in
        :mod:`repro.core.whatif` — so that an estimator shared across queries
        by the service layer can never alias two different training targets.
        Fitting is per-key single-flight: concurrent batch threads
        sharing one estimator fit each key exactly once, while fits of
        *different* keys run in parallel (the fit happens outside the lock).
        """
        if cache_key is None:  # a one-off fit: neither regressor nor design is kept
            return self._fit_fresh(np.asarray(target_factory(), dtype=float), keep_design=False)
        while True:
            with self._fit_lock:
                cached = self._regressor_cache.get(cache_key)
                if cached is not None:
                    self._n_regressor_hits += 1
                    self._regressor_cache.move_to_end(cache_key)
                    self._design = None  # the burst of misses is over
                    return cached
                waiter = self._pending_fits.get(cache_key)
                if waiter is None:
                    self._pending_fits[cache_key] = threading.Event()
                    break  # we are the builder
            waiter.wait()
            # Loop: the value is cached now, or the builder failed (or the
            # entry was immediately evicted) and we take over as builder.
        try:
            regressor = self._fit_fresh(np.asarray(target_factory(), dtype=float), key=cache_key)
        except BaseException:
            with self._fit_lock:
                event = self._pending_fits.pop(cache_key, None)
            if event is not None:
                event.set()
            raise
        with self._fit_lock:
            self._regressor_cache[cache_key] = regressor
            while len(self._regressor_cache) > _MAX_CACHED_REGRESSORS:
                self._regressor_cache.popitem(last=False)
            event = self._pending_fits.pop(cache_key, None)
        if event is not None:
            event.set()
        return regressor

    def release_design(self) -> None:
        """End a burst of fits as a cache hit does: a kernel call over a plan
        group's variants stands for the hits they would make one at a time."""
        with self._fit_lock:
            self._design = None

    def _training_values(self, attribute: str) -> np.ndarray:
        return self._at_training_rows(self.view.column_view(attribute))

    def _training_block(self, attribute: str) -> np.ndarray:
        """``attribute``'s encoded block at the training rows, column-major (its stored
        column itself for a float column without NaN when every row trains)."""
        encode = self.encoder(attribute).block
        build = lambda: np.asfortranarray(encode(self._training_values(attribute)))  # noqa: E731
        return self._memo(("train", attribute), build, (attribute,))

    def _at_training_rows(self, values: np.ndarray) -> np.ndarray:
        """``values`` at the training rows: themselves, uncopied, when every row trains."""
        assert self._train_indices is not None
        if len(self._train_indices) == len(values):
            return values
        return values[self._train_indices]

    def _fit_fresh(
        self, target: np.ndarray, keep_design: bool = True, key: Hashable = None
    ) -> ConditionalMeanRegressor:
        """Fit a regressor of ``target`` (full-view length) at the training rows.

        A target with one value ``c`` there (the count target of a ``FOR`` that
        reads no post value is 1 on every row) predicts exactly ``c``
        (:meth:`~repro.ml.density.ConditionalMeanRegressor.fit_constant`) and is
        checked before anything else is built, so it fits no encoder and builds
        no training block, Gram block, ``Xᵀy`` product, design or tree.  Any
        other target is fitted on the shared encoder and blocks and factor
        (linear / ridge) or design (forest), the first such fit building them.
        """
        if len(target) != len(self.view):
            raise QuerySemanticsError("the training target must align with the view rows")
        regressor = ConditionalMeanRegressor(
            feature_attributes=self.feature_attributes,
            regressor_kind=self.config.regressor,
            random_state=self.config.random_state,
            regressor_params=self.config.regressor_params(),
        )
        target = self._at_training_rows(target)
        if target.size and (target == target[0]).all():
            # a constant target is its own estimate, exactly (a mean would round)
            regressor.fit_constant(float(target[0]))
        elif self.config.regressor != "forest":
            # the intercept's ones are the block named "", and read no column
            blocks = [("", self._memo(("ones",), lambda: np.ones((len(target), 1)), ()))]
            blocks += [(a, self._training_block(a)) for a in self.feature_attributes]
            if self._factor is None:
                self._factor = regressor.factorise(
                    blocks, lambda pair, build: self._memo(("gram", *pair), build, pair)
                )
            # a keyed target reads the outcomes: each block's products with it keep
            memo = None if key is None else lambda name, build: self._memo(
                ("xty", name, key), build, (name, *self.outcome_attributes)
            )
            regressor.fit_design(self._feature_encoder(), blocks, target, self._factor, memo)
        else:
            design = self._design
            if design is None:
                design = self._feature_encoder().design(
                    {a: self._training_values(a) for a in self.feature_attributes}
                )
                if keep_design:
                    self._design = design
            regressor.fit_design(self._feature_encoder(), design, target)
        with self._fit_lock:
            self._n_regressor_fits += 1
        return regressor

    @property
    def regressor_cache_stats(self) -> dict[str, int]:
        """Counters of regressor fits vs. cache reuses over this estimator's life."""
        return {
            "fits": self._n_regressor_fits,
            "hits": self._n_regressor_hits,
            "cached": len(self._regressor_cache),
        }
