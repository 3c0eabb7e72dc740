"""A persistent multiprocessing pool of shard workers (stdlib only).

Each worker process owns one :class:`~repro.shard.partition.Shard` for the
pool's whole lifetime — the shard (including the full database snapshot) is
transferred **once** at start-up (by copy-on-write under the ``fork`` start
method, by pickle under ``spawn``), never per query.  A query moves to the
data: it travels whole, as a small pickled task message, to the one worker its
plan is homed on (:class:`~repro.service.fingerprint.PlanDealer`), which
answers it unsharded from the full snapshot (:meth:`ShardWorkerRuntime.run_full`)
and sends scalars back — a how-to exactly like a what-if.  (A single
:meth:`ShardPool.run_what_if` is still row-scattered and merged through
:mod:`repro.shard.merge`; see there.)
Database commits move the running workers forward *in place*
(:meth:`ShardPool.apply_update`): only the changed relations and re-shaped
ownership masks cross the process boundary, and the workers' plan caches for
untouched relations stay warm — the pool is never restarted for an update.

Inside a worker, a :class:`ShardWorkerRuntime` keeps the same kind of
plan-level caches the thread-mode service keeps in-process: materialised
relevant views, fitted estimators (each with its internal regressor cache) and
how-to candidate enumerations, keyed by plan fingerprints.  Repeated-template
workloads therefore pay the estimator fit once *per worker* and pure
prediction afterwards — CPU-bound fits run truly in parallel across processes,
which is the scaling step the GIL denies the thread-pool executor.

When worker processes cannot be started (no usable ``multiprocessing`` start
method, sandboxed semaphores, pickling failure), the pool degrades to an
*inline* mode that runs the identical tasks sequentially in-process;
``mode`` reports which one is active, and answers are bitwise identical either
way.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig, Variant
from ..core.howto import HowToEngine
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.whatif import WhatIfEngine, validate_query
from ..exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from ..obs import trace as obs_trace
from ..relational.aggregates import get_aggregate
from ..relational.columnar import (
    Column,
    ColumnStore,
    KernelCache,
    store_from_buffers,
    store_to_buffers,
)
from ..relational.database import Database
from ..relational.predicates import evaluate_mask
from ..relational.relation import Relation
from ..service.fingerprint import (
    PlanDealer,
    dag_key,
    fingerprint_query,
    use_key,
    use_relations,
)
from .merge import WhatIfShardPartial, merge_what_if
from .partition import Shard, ShardPlan
from .shm import (
    SegmentAttachment,
    SegmentManager,
    decode_database,
    encode_database,
    release_buffers,
    resolve_buffers,
    ship_buffers,
    shm_available,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import HowToResult, WhatIfResult

__all__ = ["ShardPool", "ShardPoolError", "ShardWorkerRuntime"]

_JOIN_TIMEOUT_SECONDS = 5.0
_POLL_SECONDS = 0.2


class ShardPoolError(HypeRError):
    """A shard worker failed or the pool is not in a runnable state."""


class ShardWorkerRuntime:
    """Per-shard evaluation engine with plan-level caches (runs inside a worker).

    The runtime is deliberately free of any parent-process state: it is
    constructed from ``(shard, causal_dag, config)`` alone, so the same class
    backs both real worker processes and the inline fallback.
    """

    def __init__(
        self,
        shard: Shard,
        causal_dag: CausalDAG | None,
        config: EngineConfig,
        *,
        attachment: SegmentAttachment | None = None,
    ) -> None:
        self.shard = shard
        self.config = config
        self.causal_dag = causal_dag
        self.attachment = attachment
        self.whatif = WhatIfEngine(shard.database, causal_dag, config)
        # Share the (possibly backend-converted) database between both engines.
        self.howto = HowToEngine(self.whatif.database, causal_dag, config)
        self._dag_identity = dag_key(causal_dag)
        # Bounded like the parent-side QueryCaches: a persistent worker
        # serving many distinct plans must not grow without limit.
        from ..service.cache import LRUCache

        self._views = LRUCache(16, "worker-views")
        self._local_views = LRUCache(16, "worker-local-views")
        self._block_assignments = LRUCache(16, "worker-blocks")
        self._estimators = LRUCache(64, "worker-estimators")
        self._candidates = LRUCache(64, "worker-candidates")
        # Per-plan fused-kernel caches (repro.relational.columnar.KernelCache):
        # every deterministic intermediate that parameter variants of one plan
        # share — masks, output columns, index sets, the backdoor covariates'
        # share of each regressor's prediction.
        self._kernels = LRUCache(16, "worker-kernels")
        self.n_tasks = 0
        self.n_estimator_builds = 0

    # -- cached plan components ---------------------------------------------------------

    def _fingerprint(self, query: WhatIfQuery | HowToQuery):
        return fingerprint_query(
            query, self.config, generation=0, dag_identity=self._dag_identity
        )

    def _view(self, query: WhatIfQuery | HowToQuery) -> tuple:
        from ..core.estimator import build_view_dag

        return self._views.get_or_create(
            use_key(query.use),
            lambda: (
                query.use.build(self.whatif.database),
                build_view_dag(self.causal_dag, query.use, self.whatif.database),
            ),
            tags=use_relations(query.use),
        )

    def _estimator(self, query: WhatIfQuery | HowToQuery, view, view_dag) -> Any:
        """The plan's fitted estimator (cached; builds are counted on the worker span)."""
        engine = self.howto if isinstance(query, HowToQuery) else self.whatif

        def build():
            self.n_estimator_builds += 1
            return engine.build_estimator(query, view=view, view_dag=view_dag)

        return self._estimators.get_or_create(
            self._fingerprint(query).estimator_key, build, tags=use_relations(query.use)
        )

    def _row_mask(self, query: WhatIfQuery | HowToQuery, view) -> np.ndarray:
        mask = self.shard.own_rows(query.use.base_relation)
        if len(mask) != len(view):
            raise ShardPoolError(
                f"shard row mask over {query.use.base_relation!r} has {len(mask)} rows "
                f"but the relevant view has {len(view)} — the shard snapshot is stale"
            )
        return mask

    def _local_view(self, query: WhatIfQuery | HowToQuery, view) -> Relation:
        """The full view filtered to this shard's rows (cached per plan)."""
        return self._local_views.get_or_create(
            use_key(query.use), lambda: view.filter(self._row_mask(query, view))
        )

    def _block_assignment(
        self, query: WhatIfQuery, view
    ) -> tuple[np.ndarray, int]:
        """Full-view block labels for shard-0 carriers (cached per plan).

        Returning the *same* cached array for every query of a plan lets
        pickle's memoizer serialise it once per batch message.
        """
        return self._block_assignments.get_or_create(
            use_key(query.use),
            lambda: self.whatif._block_assignment(
                query, view, (self.shard.block_labels, self.shard.n_blocks)
            ),
        )

    # -- task handlers ------------------------------------------------------------------

    def handle(self, kind: str, payload: Any) -> Any:
        """Serve one task, stamping a worker span onto the outgoing payload.

        The span is a plain dict inside the partial's ``meta`` (or a result's
        ``metadata``), so it crosses the pickling boundary with the payload it
        times; the parent pool pops it back out — *always*, traced or not, so
        merged answers stay bitwise identical to the unsharded path — and
        re-attaches it to the live trace via :func:`repro.obs.trace.add_span`.
        """
        self.n_tasks += 1
        builds_before = self.n_estimator_builds
        started = time.perf_counter()
        out = self._dispatch(kind, payload)
        elapsed = time.perf_counter() - started
        meta = getattr(out, "meta", None)
        if not isinstance(meta, dict):
            meta = getattr(out, "metadata", None)
        if isinstance(meta, dict):
            meta["worker_span"] = {
                "name": f"shard-worker[{self.shard.index}]",
                "duration_ms": round(elapsed * 1000.0, 6),
                "meta": {
                    "shard": self.shard.index,
                    "kind": kind,
                    "estimator_builds": self.n_estimator_builds - builds_before,
                },
                "children": [],
            }
        return out

    def _dispatch(self, kind: str, payload: Any) -> Any:
        if kind == "whatif":
            return self.what_if_partial(payload)
        if kind == "full":
            query, exhaustive = payload
            return self.run_full(query, exhaustive)
        if kind == "batch":
            out = []
            for sub_kind, sub_payload in payload:
                try:
                    out.append((True, self.handle(sub_kind, sub_payload)))
                except Exception as error:  # noqa: BLE001 - per-subtask capture
                    out.append((False, _describe_error(error)))
            return out
        if kind == "update":
            return self.apply_update(payload)
        if kind == "ping":
            return {"shard": self.shard.index, "n_tasks": self.n_tasks}
        raise ShardPoolError(f"unknown shard task kind {kind!r}")

    def apply_update(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Move this worker's shard snapshot to a new generation in place.

        ``payload`` carries only the delta the parent diffed for this shard:
        the changed/added relations, removed relation names, the new relation
        order and foreign keys, and whichever row masks / block labels
        actually differ.  Unchanged relations are reused from the current
        snapshot, so the rebuilt engines see value-identical training data
        and merged answers stay bitwise equal to the unsharded path.  Plan
        caches tagged with a changed relation are evicted; the row-geometry
        caches (local views, block assignments) are dropped wholesale because
        a commit can re-shape ownership masks even over unchanged relations.

        Two optional keys extend the delta beyond relation data:
        ``replace_dag``/``causal_dag`` swap the worker's causal background
        knowledge in place (engines are rebuilt against it), and
        ``clear_caches`` drops every plan cache regardless of tags — together
        they let a full invalidation or a DAG swap move the pool forward
        without restarting worker processes.
        """
        old_database = self.whatif.database
        changed_relations: dict[str, Relation] = dict(payload["changed"])
        for delta in payload.get("deltas", ()):
            changed_relations[delta["name"]] = self._apply_relation_delta(
                old_database[delta["name"]], delta
            )
            # one patch segment per commit: without this the worker would
            # keep every one of them mapped for its whole life
            release_buffers(delta["descriptor"], self.attachment)
        removed: set[str] = set(payload["removed"])
        relations = [
            changed_relations[name] if name in changed_relations else old_database[name]
            for name in payload["relation_names"]
        ]
        database = Database(relations, foreign_keys=payload["foreign_keys"])
        row_masks = {
            name: mask
            for name, mask in self.shard.row_masks.items()
            if name not in removed
        }
        row_masks.update(payload["row_masks"])
        labels = {
            name: arr
            for name, arr in self.shard.block_labels.items()
            if name not in removed
        }
        labels.update(payload["block_labels"])
        shard_of_block = payload["shard_of_block"]
        if shard_of_block is None:
            shard_of_block = self.shard.shard_of_block
        self.shard = Shard(
            index=self.shard.index,
            n_shards=self.shard.n_shards,
            database=database,
            row_masks=row_masks,
            block_labels=labels,
            n_blocks=payload["n_blocks"],
            shard_of_block=shard_of_block,
        )
        if payload.get("replace_dag"):
            self.causal_dag = payload["causal_dag"]
            self._dag_identity = dag_key(self.causal_dag)
        self.whatif = WhatIfEngine(database, self.causal_dag, self.config)
        self.howto = HowToEngine(self.whatif.database, self.causal_dag, self.config)
        if payload.get("clear_caches"):
            evicted = len(self._views) + len(self._estimators) + len(self._candidates)
            self._views.clear()
            self._estimators.clear()
            self._candidates.clear()
        else:
            dirty = set(changed_relations) | removed
            evicted = self._views.evict_tagged(dirty)
            evicted += self._estimators.evict_tagged(dirty)
            evicted += self._candidates.evict_tagged(dirty)
        self._local_views.clear()
        self._block_assignments.clear()
        # Kernel caches hold row-geometry-dependent arrays (masks, index sets)
        # even for plans over untouched relations; drop them wholesale like
        # the local views.
        self._kernels.clear()
        return {"shard": self.shard.index, "evicted": evicted}

    def _apply_relation_delta(self, old: Relation, delta: dict[str, Any]) -> Relation:
        """Rebuild a relation from its previous generation plus a patch.

        ``delta`` carries the new schema and the changed columns only — whole
        (``indices`` is ``None``; numeric ones stay zero-copy views of the
        patch segment) or as the new values of the changed rows plus the
        ascending indices to splice them at.  Untouched columns are reused as
        they are; the result is value-identical to the full relation the
        parent diffed, so merged answers cannot drift from the unsharded path.
        """
        indices = delta["indices"]
        patch = store_from_buffers(
            delta["header"], resolve_buffers(delta["descriptor"], self.attachment)
        )
        old_store = old.columnar_store()
        columns = dict(old_store.columns)
        for name, patch_column in patch.columns.items():
            if indices is None:
                columns[name] = patch_column
                continue
            column = columns[name]
            data = np.array(column.data, copy=True)
            null = np.array(column.null, copy=True)
            data[indices] = patch_column.data
            null[indices] = patch_column.null
            columns[name] = Column(data, null, column.is_numeric)
        schema = delta["schema"]
        return Relation.from_colstore(
            schema,
            ColumnStore({n: columns[n] for n in schema.attribute_names}, old_store.length),
            old.backend,
        )

    # Kept until ROADMAP 1(d) + 2(d): run_what_if and the node's kind="whatif".
    def what_if_partial(self, query: WhatIfQuery) -> WhatIfShardPartial:
        """Contributions of this shard's rows, via the shard-local kernels.

        Per-query vectorized work (masks, post-update columns, predictions)
        runs on the local view only — ``n / n_shards`` rows; the full view is
        touched solely by lazy regressor-fit targets (once per plan) and by
        shard 0's merge carriers (:mod:`repro.shard.local`).
        """
        from .local import local_indep_contributions, local_what_if_contributions

        view, view_dag = self._view(query)
        disjuncts = validate_query(query, view, view_dag)
        local_view = self._local_view(query, view)
        kernels = self._kernels.get_or_create(
            use_key(query.use), KernelCache, tags=use_relations(query.use)
        )
        if self.config.ignores_dependencies:
            count, sum_ = local_indep_contributions(query, local_view)
            meta: dict[str, Any] = {
                "variant": Variant.INDEP,
                "backdoor_set": (),
                "n_disjuncts": len(disjuncts),
            }
        else:
            estimator = self._estimator(query, view, view_dag)
            count, sum_ = local_what_if_contributions(
                query, view, local_view, disjuncts, estimator, kernels=kernels
            )
            meta = {
                "variant": self.config.variant,
                "backdoor_set": tuple(estimator.backdoor_set),
                "n_training_rows": estimator.n_training_rows,
                "n_disjuncts": len(disjuncts),
                "feature_attributes": list(estimator.feature_attributes),
            }
        needs_sum = get_aggregate(query.output_aggregate).needs_output_value

        partial = WhatIfShardPartial(
            shard_index=self.shard.index,
            n_shards=self.shard.n_shards,
            n_rows=len(view),
            # Cache hits return the *same* array object for every query of a
            # plan, so pickle's memo table ships one copy per batch message.
            row_indices=kernels.get(
                ("row_indices",), lambda: np.flatnonzero(self._row_mask(query, view))
            ),
            count=count,
            sum=sum_ if needs_sum else None,
            meta=meta,
        )
        if self.shard.index == 0:
            # Merge carriers: full-view context the finalizer needs exactly once.
            partial.scope_mask = kernels.get(
                ("full_scope_mask", query.when.canonical()),
                lambda: evaluate_mask(query.when, view),
            )
            partial.block_of_row, partial.n_blocks = self._block_assignment(query, view)
        return partial

    def _full_kernels(self, query: WhatIfQuery | HowToQuery) -> KernelCache:
        """The plan's cache of full-view arrays, shared by both query kinds.

        Distinct from :meth:`what_if_partial`'s, which holds arrays sized to
        the shard-local view.
        """
        return self._kernels.get_or_create(
            ("full", use_key(query.use)), KernelCache, tags=use_relations(query.use)
        )

    def _how_to_shared(self, query: HowToQuery):
        view, view_dag = self._view(query)
        validate_query(query, view, view_dag)  # before anything is cached
        shared = self.howto.prepare(
            query,
            view=view,
            estimator=self._estimator(query, view, view_dag),
            view_dag=view_dag,
            kernels=self._full_kernels(query),
        )
        candidates = self._candidates.get_or_create(
            ("candidates", self._fingerprint(query).query_key),
            lambda: self.howto.enumerate_candidates(
                query, shared.view, shared.scope_mask
            ),
            tags=use_relations(query.use),
        )
        return shared, candidates

    def run_full(self, query: WhatIfQuery | HowToQuery, exhaustive: bool) -> Any:
        """Answer a whole query unsharded inside this worker.

        The per-query engine of the pool (a dealt task) and of a shard node
        answering at a retained generation.  Either kind runs through this
        worker's plan caches (view, estimator, fused kernels, a how-to's
        candidates), so parameter variants of one plan pay pure prediction,
        and its answers are the unsharded engine's answers by construction.
        """
        if isinstance(query, HowToQuery):
            shared, candidates = self._how_to_shared(query)
            evaluate = (
                self.howto.evaluate_exhaustive if exhaustive else self.howto.evaluate
            )
            return evaluate(query, prepared=shared, candidates=candidates)
        view, view_dag = self._view(query)
        prepared = self.whatif.prepare(
            query,
            view=view,
            view_dag=view_dag,
            blocks=(self.shard.block_labels, self.shard.n_blocks),
            kernels=self._full_kernels(query),
        )
        estimator = None
        if not self.config.ignores_dependencies:
            estimator = self._estimator(query, view, view_dag)
        result = self.whatif.evaluate(query, prepared=prepared, estimator=estimator)
        # The answer leaves this runtime as scalars: the per-block summary is
        # an in-process view over per-row arrays (docs/architecture.md), and
        # the inline pool drops it too so both modes return equal results.
        result.block_contributions = []
        return result


def _relation_delta(
    old: Relation, new: Relation, labels: np.ndarray | None
) -> tuple[np.ndarray | None, ColumnStore] | None:
    """Diff two generations of a relation into a column or block patch.

    Returns ``(indices, patch)``.  Only columns that changed are looked at
    and shipped: :meth:`ColumnStore.with_column` shares every untouched
    :class:`Column` object between generations, so identical objects are
    skipped without comparing values.  When few rows differ, ``indices`` are
    the ascending differing rows (expanded to whole blocks when a block
    assignment is known, so co-located rows travel together) and ``patch``
    the changed columns at those rows; when most rows differ — a whole-column
    overwrite — ``indices`` is ``None`` and ``patch`` holds the changed
    columns whole.  The worker takes attribute order and specs from the new
    schema, shipped alongside (``with_column`` moves the column it replaces
    to the end).  ``None`` when a patch cannot represent the change (the set
    of attributes or the length changed).
    """
    if (
        set(old.schema.attribute_names) != set(new.schema.attribute_names)
        or len(old) != len(new)
        or len(old) == 0
    ):
        return None
    old_store, new_store = old.columnar_store(), new.columnar_store()
    columns: dict[str, Column] = {}
    changed = np.zeros(len(old), dtype=bool)
    for name, old_column in old_store.columns.items():
        new_column = new_store.columns[name]
        if new_column is old_column:
            continue
        if old_column.is_numeric != new_column.is_numeric:
            diff = np.ones(len(old), dtype=bool)
        elif old_column.is_numeric:
            both_nan = np.isnan(old_column.data) & np.isnan(new_column.data)
            diff = ((old_column.data != new_column.data) & ~both_nan) | (
                old_column.null != new_column.null
            )
        else:
            try:
                diff = np.asarray(
                    old_column.data != new_column.data, dtype=bool
                ) | (old_column.null != new_column.null)
            except Exception:  # noqa: BLE001 - exotic values; ship the column
                diff = np.ones(len(old), dtype=bool)
        if diff.any():
            columns[name] = new_column
            changed |= diff
    half = len(old) / 2
    if labels is not None and 0 < np.count_nonzero(changed) < half:
        changed = np.isin(labels, np.unique(labels[changed]))
    if np.count_nonzero(changed) >= half:
        return None, ColumnStore(columns, len(old))
    indices = np.flatnonzero(changed)
    return indices, ColumnStore(columns, len(old)).take(indices)


def _describe_error(error: BaseException) -> tuple[str, str, str]:
    return (type(error).__name__, str(error), traceback.format_exc())


#: a query the worker rejected is wrong wherever it runs: these cross the pool
#: as themselves, so every path answers them with the one envelope
_QUERY_ERRORS = {cls.__name__: cls for cls in (QuerySyntaxError, QuerySemanticsError)}


def _worker_error(shard_index: int, described: tuple[str, str, str]) -> HypeRError:
    error_type, message, trace = described
    if error_type in _QUERY_ERRORS:
        return _QUERY_ERRORS[error_type](message)
    return ShardPoolError(
        f"shard worker {shard_index} failed with {error_type}: {message}\n{trace}"
    )


def _build_shard(spec: Any, attachment: SegmentAttachment) -> Shard:
    """Materialise a worker's shard from its start-up spec.

    A plain :class:`Shard` passes through (the no-shm path); a spec dict
    carries the database as a shared-memory descriptor instead — the worker
    attaches the parent's segment and decodes relations whose numeric columns
    are zero-copy views over the shared pages.
    """
    if isinstance(spec, Shard):
        return spec
    transport = spec["database"]
    database = decode_database(
        transport["manifest"], resolve_buffers(transport["descriptor"], attachment)
    )
    return Shard(
        index=spec["index"],
        n_shards=spec["n_shards"],
        database=database,
        row_masks=spec["row_masks"],
        block_labels=spec["block_labels"],
        n_blocks=spec["n_blocks"],
        shard_of_block=spec["shard_of_block"],
    )


def _shard_worker_main(spec, causal_dag, config, task_queue, result_queue) -> None:
    """Worker process entry point: build the runtime once, then serve tasks.

    Tasks and results cross the queues as pre-pickled ``bytes`` blobs
    (protocol :data:`pickle.HIGHEST_PROTOCOL`): the parent gets exact wire
    byte counts for instrumentation, and one pickling pass with a shared memo
    table per message deduplicates arrays referenced by several sub-payloads.
    """
    attachment = SegmentAttachment()
    shard = _build_shard(spec, attachment)
    runtime = ShardWorkerRuntime(shard, causal_dag, config, attachment=attachment)
    while True:
        task = task_queue.get()
        if task is None:
            break
        if isinstance(task, (bytes, bytearray)):
            task = pickle.loads(task)
        task_id, kind, payload = task
        try:
            out = (task_id, shard.index, True, runtime.handle(kind, payload))
        except BaseException as error:  # noqa: BLE001 - worker must survive any task
            out = (task_id, shard.index, False, _describe_error(error))
        result_queue.put(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
    # Unmap (or disarm, while decoded columns still hold views) before the
    # interpreter's shutdown GC reaches the segments — never unlink: the
    # parent's SegmentManager owns the names.
    attachment.close()


class ShardPool:
    """Persistent shard workers answering whole queries dealt to them by plan.

    Parameters
    ----------
    plan:
        The :class:`~repro.shard.partition.ShardPlan` to execute (one worker
        per shard).
    causal_dag / config:
        As for the engines; every worker builds its own engines from these.
    inline:
        Force the in-process fallback (no subprocesses).  ``None`` tries real
        processes first and degrades automatically.
    start_method:
        ``multiprocessing`` start method preference; ``fork`` (where
        available) maps the shard data into workers without pickling.
    """

    def __init__(
        self,
        plan: ShardPlan,
        causal_dag: CausalDAG | None,
        config: EngineConfig,
        *,
        inline: bool | None = None,
        start_method: str | None = None,
        generation: int = 0,
    ) -> None:
        self.plan = plan
        self.causal_dag = causal_dag
        self.config = config
        self.generation = generation
        self._force_inline = bool(inline)
        self._start_method = start_method
        self._io_lock = threading.Lock()
        self._dealer = PlanDealer(config)
        self._task_counter = 0
        self.n_broadcasts = 0
        self.n_updates = 0
        self.bytes_to_workers = 0
        self.bytes_from_workers = 0
        self.update_bytes_last = 0
        self.mode: str = "unstarted"
        self.fallback_reason: str | None = None
        self._processes: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._inline_workers: list[ShardWorkerRuntime] | None = None
        self._shm_manager: SegmentManager | None = None
        self._closed = False

    @property
    def n_shards(self) -> int:
        return len(self.plan)

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "ShardPool":
        """Start the workers (idempotent); falls back to inline mode on failure."""
        if self.mode != "unstarted":
            return self
        if self._force_inline:
            self._start_inline("requested")
            return self
        try:
            self._start_processes()
            self.mode = "processes"
            # Handshake: block until every worker has decoded its snapshot
            # (and mapped the shm segments).  After this returns, unlinking a
            # segment early is safe — the workers' mappings persist — and a
            # broken transport degrades to inline here instead of failing on
            # the first real query.
            self._broadcast("ping", None)
        except Exception as error:  # noqa: BLE001 - degrade, never fail to start
            self._teardown_processes()
            self._release_segments()
            self._start_inline(f"{type(error).__name__}: {error}")
        return self

    def _start_processes(self) -> None:
        import multiprocessing as mp

        method = self._start_method
        if method is None:
            # fork maps the shard data into workers for free (copy-on-write),
            # but forking a *multithreaded* parent can clone locks in their
            # held state and deadlock the child.  When other threads are
            # already running (e.g. the pool starts lazily inside an HTTP
            # handler thread), fall back to a pickling start method; callers
            # that want the cheap fork should start the pool before spawning
            # threads (HypeRService.start_pool, done by `repro serve`).
            available = mp.get_all_start_methods()
            if "fork" in available and threading.active_count() == 1:
                method = "fork"
            elif "forkserver" in available:
                method = "forkserver"
            else:
                method = None
        ctx = mp.get_context(method)
        specs: list[Any] = list(self.plan)
        if shm_available():
            # Encode the full database ONCE into one shared-memory segment;
            # every worker rebuilds its shard from the same mapping (the
            # snapshot is the full database plus per-shard ownership masks),
            # so start-up ships descriptor-sized messages and the host holds
            # one copy of the column data regardless of worker count.
            self._shm_manager = SegmentManager()
            manifest, buffers = encode_database(self.plan[0].database)
            descriptor = self._shm_manager.put(self.generation, buffers)
            transport = {"manifest": manifest, "descriptor": descriptor}
            specs = [
                {
                    "index": shard.index,
                    "n_shards": shard.n_shards,
                    "row_masks": shard.row_masks,
                    "block_labels": shard.block_labels,
                    "n_blocks": shard.n_blocks,
                    "shard_of_block": shard.shard_of_block,
                    "database": transport,
                }
                for shard in self.plan
            ]
        self._result_queue = ctx.Queue()
        for shard, spec in zip(self.plan, specs):
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(spec, self.causal_dag, self.config, task_queue, self._result_queue),
                daemon=True,
                name=f"repro-shard-{shard.index}",
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)

    def _start_inline(self, reason: str) -> None:
        self._inline_workers = [
            ShardWorkerRuntime(shard, self.causal_dag, self.config)
            for shard in self.plan
        ]
        self.mode = "inline"
        self.fallback_reason = reason

    def close(self) -> None:
        """Stop the workers; the pool cannot be restarted afterwards.

        Takes the broadcast lock first, so a query crossing the pool when
        close() is called finishes and gets its answers before the workers
        are told to exit — readers never observe a mid-query teardown.
        """
        if self._closed:
            return
        with self._io_lock:
            if self._closed:
                return
            self._closed = True
            self._teardown_processes()
            self._release_segments()
            self._inline_workers = None
            self.mode = "closed"

    def _release_segments(self) -> None:
        if self._shm_manager is not None:
            self._shm_manager.close_all()
            self._shm_manager = None

    def release_snapshot(self, generation: int) -> int:
        """Unlink the shm segments of a retired database generation.

        Called from the service's MVCC retire hook once no reader can reach
        ``generation`` any more.  Safe there: it only touches the segment
        manager's own leaf-level lock (never the broadcast lock), workers keep
        their existing mappings (unlink removes the name, not the memory), and
        unknown generations — or a pool without shared memory — are a no-op.
        Returns the number of segments unlinked.
        """
        if self._shm_manager is None:
            return 0
        return self._shm_manager.release(generation)

    def _teardown_processes(self) -> None:
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT_SECONDS
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for task_queue in self._task_queues:
            try:
                task_queue.close()
            except Exception:  # noqa: BLE001
                pass
        if self._result_queue is not None:
            try:
                self._result_queue.close()
            except Exception:  # noqa: BLE001
                pass
        self._processes = []
        self._task_queues = []
        self._result_queue = None

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown guard
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- broadcast plumbing ------------------------------------------------------------

    def _ensure_running(self) -> None:
        if self.mode == "unstarted":
            self.start()
        if self.mode == "closed":
            raise ShardPoolError("the shard pool has been closed")

    def _broadcast(self, kind: str, payload: Any) -> list[Any]:
        """Send one task to every worker; return per-shard payloads in shard order.

        Raises :class:`ShardPoolError` if any worker reports a failure (for
        ``batch`` tasks, per-subtask failures are embedded in the payloads and
        handled by the caller instead).
        """
        return self._scatter(kind, [payload] * self.n_shards)

    def _scatter(self, kind: str, payloads: Sequence[Any]) -> list[Any]:
        """Send one task *per worker* (distinct payloads); collect in shard order.

        The broadcast lock makes each scatter atomic with respect to every
        other crossing: an ``update`` scatter never interleaves with a query
        broadcast, so a query's per-shard partials always come from one
        database generation.
        """
        self._ensure_running()
        if len(payloads) != self.n_shards:
            raise ShardPoolError(
                f"scatter needs {self.n_shards} payloads, got {len(payloads)}"
            )
        with self._io_lock:
            self.n_broadcasts += 1
            if self.mode == "inline":
                assert self._inline_workers is not None
                outs = []
                for worker, payload in zip(self._inline_workers, payloads):
                    try:
                        outs.append(worker.handle(kind, payload))
                    except ShardPoolError:
                        raise
                    except Exception as error:  # noqa: BLE001 - uniform report
                        raise _worker_error(worker.shard.index, _describe_error(error))
                return outs
            self._task_counter += 1
            task_id = self._task_counter
            with obs_trace.span(
                "shard.scatter", kind=kind, shards=self.n_shards
            ) as sspan:
                bytes_out = 0
                for task_queue, payload in zip(self._task_queues, payloads):
                    blob = pickle.dumps(
                        (task_id, kind, payload), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    bytes_out += len(blob)
                    task_queue.put(blob)
                self.bytes_to_workers += bytes_out
                by_shard: dict[int, Any] = {}
                failures: list[tuple[int, tuple[str, str, str]]] = []
                bytes_in = 0
                while len(by_shard) < self.n_shards:
                    try:
                        raw = self._result_queue.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        self._check_workers_alive()
                        continue
                    if isinstance(raw, (bytes, bytearray)):
                        bytes_in += len(raw)
                        raw = pickle.loads(raw)
                    received_id, shard_index, ok, out = raw
                    if received_id != task_id:
                        continue  # stale result from an abandoned broadcast
                    if ok:
                        by_shard[shard_index] = out
                    else:
                        failures.append((shard_index, out))
                        by_shard[shard_index] = None
                self.bytes_from_workers += bytes_in
                if sspan is not None:
                    sspan.meta["bytes_out"] = bytes_out
                    sspan.meta["bytes_in"] = bytes_in
            if failures:
                raise _worker_error(*failures[0])
            return [by_shard[i] for i in range(self.n_shards)]

    def _check_workers_alive(self) -> None:
        for process in self._processes:
            if not process.is_alive():
                raise ShardPoolError(
                    f"shard worker {process.name!r} died with exit code "
                    f"{process.exitcode}; the pool must be recreated"
                )

    def _run_on_one(self, kind: str, payload: Any, shard_index: int = 0) -> Any:
        """Run one task on a single worker."""
        self._ensure_running()
        with self._io_lock:
            self.n_broadcasts += 1
            if self.mode == "inline":
                assert self._inline_workers is not None
                return self._inline_workers[shard_index].handle(kind, payload)
            self._task_counter += 1
            task_id = self._task_counter
            blob = pickle.dumps((task_id, kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
            self.bytes_to_workers += len(blob)
            self._task_queues[shard_index].put(blob)
            while True:
                try:
                    raw = self._result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    self._check_workers_alive()
                    continue
                if isinstance(raw, (bytes, bytearray)):
                    self.bytes_from_workers += len(raw)
                    raw = pickle.loads(raw)
                received_id, shard, ok, out = raw
                if received_id != task_id:
                    continue
                if not ok:
                    raise _worker_error(shard, out)
                return out

    # -- live updates ------------------------------------------------------------------

    def apply_update(
        self,
        plan: ShardPlan,
        changed: Sequence[str] | frozenset[str],
        *,
        generation: int | None = None,
        causal_dag: Any = None,
        replace_dag: bool = False,
        clear_caches: bool = False,
    ) -> None:
        """Move the running workers to ``plan``'s database generation in place.

        Ships each worker a delta, not the world: of a changed relation only
        the columns that changed travel (:func:`_relation_delta`) — as *block
        patches*, the new values of just the rows whose blocks hold a modified
        value, or whole when most rows differ — once, through shared memory
        when available, and are spliced in worker-side over the previous
        generation's column store (relations that change shape or schema fall
        back to whole-relation pickles).  ``update_bytes_last`` counts what the
        commit moved: the queue messages plus the patch segments' bytes.
        Alongside ride the new relation order and foreign keys,
        and only those row masks / block labels that actually differ from the
        worker's current shard (``np.array_equal`` diff).  Workers stay alive
        across the update — their fitted estimators and views for untouched
        relations stay warm — and the broadcast lock serialises the update
        against in-flight query crossings, so every query's partials come
        from exactly one generation (tracked by ``generation``, defaulting to
        the next one up; retired generations' segments are dropped via
        :meth:`release_snapshot`).

        ``replace_dag=True`` ships ``causal_dag`` as the workers' new causal
        background knowledge (engines rebuild against it in place), and
        ``clear_caches=True`` drops every worker plan cache regardless of
        tags — the in-place forms of ``update_causal_dag`` and
        ``invalidate``, which used to tear the pool down.
        """
        self._ensure_running()
        if len(plan) != self.n_shards:
            raise ShardPoolError(
                f"cannot apply an update with {len(plan)} shards to a pool of "
                f"{self.n_shards}; recreate the pool instead"
            )
        if generation is None:
            generation = self.generation + 1
        old_plan = self.plan
        new_database = plan[0].database
        old_database = old_plan[0].database
        changed_relations: dict[str, Relation] = {}
        deltas: list[dict[str, Any]] = []
        segment_bytes = 0  # patch bytes placed in shared memory, not the queues
        for name in changed:
            if name not in new_database:
                continue
            delta = None
            if name in old_database:
                delta = _relation_delta(
                    old_database[name],
                    new_database[name],
                    old_plan[0].block_labels.get(name),
                )
            if delta is None:
                changed_relations[name] = new_database[name]
                continue
            indices, patch = delta
            header, buffers = store_to_buffers(patch)
            descriptor = ship_buffers(buffers, self._shm_manager, generation)
            segment_bytes += descriptor.get("nbytes", 0)
            deltas.append(
                {
                    "name": name,
                    "schema": new_database[name].schema,
                    "indices": indices,
                    "header": header,
                    "descriptor": descriptor,
                }
            )
        removed = [
            name for name in old_database.relation_names if name not in new_database
        ]
        label_delta = {
            name: arr
            for name, arr in plan[0].block_labels.items()
            if name not in old_plan[0].block_labels
            or not np.array_equal(old_plan[0].block_labels[name], arr)
        }
        shard_of_block = plan[0].shard_of_block
        if old_plan[0].shard_of_block is not None and np.array_equal(
            old_plan[0].shard_of_block, shard_of_block
        ):
            shard_of_block = None  # unchanged: don't re-ship it
        payloads = []
        for old_shard, new_shard in zip(old_plan, plan):
            mask_delta = {
                name: mask
                for name, mask in new_shard.row_masks.items()
                if name not in old_shard.row_masks
                or not np.array_equal(old_shard.row_masks[name], mask)
            }
            payload: dict[str, Any] = {
                "changed": changed_relations,
                "deltas": deltas,
                "removed": removed,
                "relation_names": list(new_database.relation_names),
                "foreign_keys": list(new_database.foreign_keys),
                "row_masks": mask_delta,
                "block_labels": label_delta,
                "n_blocks": new_shard.n_blocks,
                "shard_of_block": shard_of_block,
            }
            if replace_dag:
                payload["replace_dag"] = True
                payload["causal_dag"] = causal_dag
            if clear_caches:
                payload["clear_caches"] = True
            payloads.append(payload)
        bytes_before = self.bytes_to_workers
        with obs_trace.span("shard.update", shards=self.n_shards, generation=generation):
            self._scatter("update", payloads)
        if self.mode == "inline":
            # Inline workers receive the payloads by reference; measure what a
            # process pool would have shipped so the commit-payload accounting
            # (and the tests asserting on it) hold in either mode.
            self.update_bytes_last = sum(
                len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)) for p in payloads
            )
            self.bytes_to_workers += self.update_bytes_last
        else:
            self.update_bytes_last = (
                self.bytes_to_workers - bytes_before + segment_bytes
            )
        if replace_dag:
            self.causal_dag = causal_dag
        self.plan = plan
        self.generation = generation
        self.n_updates += 1

    # -- query execution ---------------------------------------------------------------

    @staticmethod
    def _pop_worker_span(out: Any) -> dict[str, Any] | None:
        """Remove the worker-span stamp from a shipped payload (always).

        Popping unconditionally — not only when a trace is active — keeps the
        payload's ``meta`` identical to what the unsharded path produces.
        """
        meta = getattr(out, "meta", None)
        if not isinstance(meta, dict):
            meta = getattr(out, "metadata", None)
        if isinstance(meta, dict):
            return meta.pop("worker_span", None)
        return None

    @classmethod
    def _attach_worker_spans(cls, outs: Sequence[Any]) -> None:
        """Re-attach shipped worker spans under the current (broadcast) span."""
        for out in outs:
            raw = cls._pop_worker_span(out)
            if raw is not None:
                obs_trace.add_span(
                    raw["name"],
                    float(raw.get("duration_ms", 0.0)) / 1000.0,
                    meta=raw.get("meta"),
                    children=raw.get("children"),
                )

    # Kept until ROADMAP 1(d) + 2(d): perf/probes.py times this row-scatter.
    def run_what_if(self, query: WhatIfQuery) -> "WhatIfResult":
        """Answer one what-if query: broadcast, collect partials, merge exactly."""
        started = time.perf_counter()
        with obs_trace.span("shard.broadcast", shards=self.n_shards) as bspan:
            partials = self._broadcast("whatif", query)
            if bspan is not None:
                bspan.meta["mode"] = self.mode
            self._attach_worker_spans(partials)
        with obs_trace.span("shard.merge"):
            result = merge_what_if(query, partials)
        result.runtime_seconds = time.perf_counter() - started
        return result

    def run_how_to(self, query: HowToQuery, *, exhaustive: bool = False) -> "HowToResult":
        """Answer one how-to query whole, on the worker its plan is homed on."""
        (home,) = self._dealer.deal([query], range(self.n_shards))
        with obs_trace.span("shard.broadcast", shards=1) as bspan:
            result = self._run_on_one("full", (query, exhaustive), home)
            if bspan is not None:
                bspan.meta["mode"] = self.mode
            self._attach_worker_spans([result])
        return result

    def run_query(
        self, query: WhatIfQuery | HowToQuery, *, exhaustive: bool = False
    ) -> Any:
        if isinstance(query, HowToQuery):
            return self.run_how_to(query, exhaustive=exhaustive)
        return self.run_what_if(query)

    def run_batch(
        self,
        queries: Sequence[WhatIfQuery | HowToQuery | Exception],
        *,
        return_errors: bool = False,
    ) -> list[Any]:
        """Answer a batch with one scatter round-trip: whole queries, dealt by plan.

        Every query, what-if or how-to, is **query-scattered**: dealt to a
        worker by plan (:meth:`PlanDealer.deal
        <repro.service.fingerprint.PlanDealer.deal>` — a plan's queries go to
        the worker that has it fitted, so a commit costs one refit per plan,
        not one per plan and worker), and each worker answers its share
        unsharded from the full zero-copy snapshot it already holds, through
        its warm plan caches (:meth:`ShardWorkerRuntime.run_full`).  One task
        message and one result message per worker cover the whole suite, each
        query's fixed dispatch cost is paid once instead of once per shard,
        and the answers are the unsharded engine's answers by construction —
        no merge step, nothing to drift.

        Entries that are already exceptions pass through; failures are
        captured per query with ``return_errors=True``, else the first one is
        raised.
        """
        results: list[Any] = list(queries)
        entries = [
            (index, query)
            for index, query in enumerate(queries)
            if not isinstance(query, Exception)
        ]
        if entries:
            per_worker_tasks: list[list[tuple[str, Any]]] = [
                [] for _ in range(self.n_shards)
            ]
            per_worker_slots: list[list[int]] = [[] for _ in range(self.n_shards)]
            dealt = self._dealer.deal(
                [query for _index, query in entries], range(self.n_shards)
            )
            for worker, (index, query) in zip(dealt, entries):
                per_worker_tasks[worker].append(("full", (query, False)))
                per_worker_slots[worker].append(index)
            with obs_trace.span(
                "shard.scatter_batch", shards=self.n_shards, batch=len(entries)
            ) as bspan:
                per_worker = self._scatter("batch", per_worker_tasks)
                if bspan is not None:
                    bspan.meta["mode"] = self.mode
                self._attach_worker_spans(
                    [out for worker_out in per_worker for ok, out in worker_out if ok]
                )
            for worker_out, slots in zip(per_worker, per_worker_slots):
                for index, (ok, out) in zip(slots, worker_out):
                    results[index] = out if ok else _worker_error(0, out)
        if not return_errors:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    # -- instrumentation ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        manager = self._shm_manager
        return {
            "mode": self.mode,
            "n_shards": self.n_shards,
            "n_blocks": self.plan.n_blocks,
            "n_broadcasts": self.n_broadcasts,
            "n_updates": self.n_updates,
            "generation": self.generation,
            "bytes_to_workers": self.bytes_to_workers,
            "bytes_from_workers": self.bytes_from_workers,
            "update_bytes_last": self.update_bytes_last,
            "shm": manager.stats() if manager is not None else None,
            "fallback_reason": self.fallback_reason,
        }
