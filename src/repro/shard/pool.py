"""A persistent multiprocessing pool of shard workers (stdlib only):
``ShardPool``, its life cycle, and the ``pool`` figures and ``hyper_pool_*``
and shm series of its table.

Every worker process is a :class:`~repro.service.session.HypeRService` of its
own over the full database snapshot, which is transferred **once** at start-up
(one shared-memory segment when available, else by copy-on-write under
``fork`` or by pickle under ``spawn``), never per query.  A query moves to the
data: its text crosses, in one small pickled task message per worker, to the
one worker its plan is homed on (:class:`~repro.service.fingerprint.PlanDealer`),
whose service answers its share of the batch one plan group at a time
(:meth:`HypeRService.answer <repro.service.session.HypeRService.answer>`):
one fingerprint per text key per snapshot, and each group's plan found or
bound under the group, as every text's is; scalars go back.  A query object
crosses as itself, and binds nothing; a single query is a
batch of one, a how-to travels like a what-if, and every crossing, query or
commit, goes through one loop (``ShardPool._scatter``).
Database commits move the running workers forward *in place*
(:meth:`ShardPool.apply_update`): of each changed relation only the columns
that are not the previous generation's own cross the process boundary, each
worker commits them into its service with ``update_database``, and its plan
state that reads no changed column stays warm — the pool is never restarted for
an update, unless one fails: then its workers start again at the next crossing.

Because a worker is a service, it keeps exactly the plan-level caches the
thread-mode service keeps in-process — relevant views, fitted estimators,
fused kernels, how-to candidates, keyed by plan fingerprints — so
repeated-template workloads pay the estimator fit once *per worker* and pure
prediction afterwards, and CPU-bound fits run truly in parallel across
processes, which is the scaling step the GIL denies the thread-pool executor.

When worker processes cannot be started (no usable ``multiprocessing`` start
method, sandboxed semaphores, pickling failure), the pool degrades to an
*inline* mode that runs the identical tasks sequentially in-process;
``mode`` reports which one is active, and answers are bitwise identical either
way.
"""

from __future__ import annotations

import contextvars
import ctypes
import logging
import pickle
import queue as queue_module
import threading
import time
import traceback
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.results import WhatIfResult
from ..exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from ..lang.parser import parse_query
from ..obs import trace as obs_trace
from ..obs.metrics import Figure, Reported
from ..relational.columnar import (
    ColumnStore,
    store_from_buffers,
    store_to_buffers,
)
from ..relational.database import Database
from ..relational.relation import Relation
from ..service.backend import raise_first_error
from ..service.fingerprint import Column, PlanDealer, PlanFingerprint, fingerprint_query
from ..service.session import HypeRService
from .partition import ShardPlan
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

__all__ = ["ShardPool", "ShardPoolError", "ShardWorkerRuntime"]

_JOIN_TIMEOUT_SECONDS = 5.0
_POLL_SECONDS = 0.2


class ShardPoolError(HypeRError):
    """A shard worker failed or the pool is not in a runnable state."""


class ShardWorkerRuntime:
    """One pool worker: a :class:`HypeRService` over the full snapshot.

    Deliberately free of any parent-process state — it is constructed from
    ``(index, database, causal_dag, config)`` alone — so the same class backs
    both real worker processes and the inline fallback.  Its service keeps no
    result cache: answers leave as scalars, and the parent caches results.
    """

    def __init__(
        self,
        index: int,
        database: Database,
        causal_dag: CausalDAG | None,
        config: EngineConfig,
        *,
        attachment: SegmentAttachment | None = None,
    ) -> None:
        self.index = index
        self.attachment = attachment
        self.service = HypeRService(database, causal_dag, config, result_cache_size=0)

    def handle(self, kind: str, payload: Any) -> Any:
        """Serve one task: a ``batch`` of queries, a commit, or a ``ping``.

        The service answers a batch one plan group at a time
        (:meth:`HypeRService.answer <repro.service.session.HypeRService.answer>`)
        in a fresh context, so an inline worker records no spans into the
        caller's trace; each group ships one worker span instead (:meth:`_timed`).
        """
        if kind == "batch":
            items, exhaustive = payload
            outcomes = contextvars.Context().run(
                self.service.answer, items, exhaustive=exhaustive, around_group=self._timed
            )
            return [
                (False, _describe_error(out)) if isinstance(out, Exception) else (True, out)
                for out in outcomes
            ]
        if kind == "update":
            return self.apply_update(payload)
        if kind == "ping":
            return None
        raise ShardPoolError(f"unknown shard task kind {kind!r}")

    def _timed(self, evaluate: Callable[[], list[Any]]) -> list[Any]:
        """One plan group's answers, the first stamped with the group's span: a
        plain dict in its ``metadata`` that the parent pops back out — *always*,
        so answers stay bitwise the unsharded path's — and re-attaches to the
        live trace (:func:`repro.obs.trace.add_span`).  What-if answers leave as
        scalars: the per-block summary is an in-process view over per-row
        arrays (docs/architecture.md), and the inline pool drops it too."""
        estimators = self.service.caches.estimators
        builds_before = estimators.stats().misses
        started = time.perf_counter()
        outcomes = evaluate()
        elapsed = time.perf_counter() - started
        answers = [out for out in outcomes if not isinstance(out, Exception)]
        for answer in answers:
            if isinstance(answer, WhatIfResult):
                answer.block_contributions = []
        if answers:
            answers[0].metadata["worker_span"] = {
                "name": f"shard-worker[{self.index}]",
                "duration_ms": round(elapsed * 1000.0, 6),
                "meta": {
                    "shard": self.index,
                    "kind": "full",
                    "queries": len(outcomes),
                    "estimator_builds": estimators.stats().misses - builds_before,
                },
                "children": [],
            }
        return outcomes

    def apply_update(self, payload: dict[str, Any]) -> None:
        """Commit the parent's next generation into this worker's service.

        ``payload`` carries one patch per changed relation — its schema, and
        in one segment its length and the columns the parent did not share
        with the previous generation — plus the new relation order and
        foreign keys.  A relation is rebuilt from the shipped columns plus its
        previous ones, under the shipped schema (a new relation, or one whose
        length changed, ships every column).  Unchanged columns are reused
        as they are, so ``update_database`` bumps — and refits the plans that
        read — exactly the changed ones, and the engines see value-identical
        training data.  ``replace_dag`` / ``causal_dag`` and ``clear_caches`` are the
        in-place forms of ``update_causal_dag`` and ``invalidate``.
        """
        service = self.service
        old_database = service.database
        relations: dict[str, Relation] = {}
        for patch in payload["patches"]:
            name, schema = patch["name"], patch["schema"]
            shipped = store_from_buffers(
                patch["header"], resolve_buffers(patch["descriptor"], self.attachment)
            )
            columns = (
                dict(old_database[name].columnar_store().columns)
                if name in old_database
                else {}
            )
            columns.update(shipped.columns)
            relations[name] = Relation.from_colstore(
                schema,
                ColumnStore({n: columns[n] for n in schema.attribute_names}, shipped.length),
            )
            # one patch segment per relation and commit: without this the
            # worker would keep every one of them mapped for its whole life
            release_buffers(patch["descriptor"], self.attachment)
        service.update_database(
            Database(
                [
                    relations[name] if name in relations else old_database[name]
                    for name in payload["relation_names"]
                ],
                foreign_keys=payload["foreign_keys"],
            )
        )
        if payload.get("replace_dag"):
            service.update_causal_dag(payload["causal_dag"])
        elif payload.get("clear_caches"):
            service.invalidate()


def _parsed(query: str | WhatIfQuery | HowToQuery) -> WhatIfQuery | HowToQuery:
    return parse_query(query) if isinstance(query, str) else query


def _describe_error(error: BaseException) -> tuple[str, str, str]:
    return (type(error).__name__, str(error), "".join(traceback.format_exception(error)))


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


def _keep_freed_heap() -> None:
    """Keep the megabytes of temporaries a batch frees for the next (glibc only):
    its default trim threshold follows the largest block freed so far, so a
    worker could page-fault them in on every batch (60 000 rows, 2-vCPU Xeon:
    ~1 300 faults, +2.7 ms CPU per batch of 8).  M_MMAP_THRESHOLD, M_TRIM_THRESHOLD."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)
        libc.mallopt(-1, 64 << 20)
    except (OSError, AttributeError):
        pass


def _shard_worker_main(index, spec, causal_dag, config, task_queue, result_queue) -> None:
    """Worker process entry point: build the service once, then serve tasks.

    ``spec`` is the database itself (the no-shm path) or a shared-memory
    descriptor of it — the worker then attaches the parent's segment and
    decodes relations whose numeric columns are zero-copy views over the
    shared pages.  Tasks and results cross the queues as pre-pickled
    ``bytes`` blobs (protocol :data:`pickle.HIGHEST_PROTOCOL`): the parent
    gets exact wire byte counts for instrumentation, and one pickling pass
    with a shared memo table per message deduplicates objects referenced by
    several sub-payloads.
    """
    _keep_freed_heap()
    attachment = SegmentAttachment()
    database = spec
    if not isinstance(spec, Database):
        database = decode_database(
            spec["manifest"], resolve_buffers(spec["descriptor"], attachment)
        )
    runtime = ShardWorkerRuntime(
        index, database, causal_dag, config, attachment=attachment
    )
    while True:
        task = task_queue.get()
        if task is None:
            break
        if isinstance(task, (bytes, bytearray)):
            task = pickle.loads(task)
        task_id, kind, payload = task
        try:
            out = (task_id, index, True, runtime.handle(kind, payload))
        except BaseException as error:  # noqa: BLE001 - worker must survive any task
            out = (task_id, index, False, _describe_error(error))
        result_queue.put(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
    # Unmap (or disarm, while decoded columns still hold views) before the
    # interpreter's shutdown GC reaches the segments — never unlink: the
    # parent's SegmentManager owns the names.
    attachment.close()


_ABSENT = " (absent while no pool is running)"


def _shm(pool: "ShardPool") -> dict[str, Any] | None:
    """The pool's segment manager's figures, ``None`` without shared memory."""
    return None if pool._shm_manager is None else pool._shm_manager.stats()


class ShardPool(Reported):
    """Persistent shard workers answering whole queries dealt to them by plan.

    Parameters
    ----------
    database:
        The snapshot every worker serves.  A
        :class:`~repro.shard.partition.ShardPlan` is accepted too — kept for
        ``perf/`` until ROADMAP 1(d) — of which only the length (the worker
        count) and the database are read.
    causal_dag / config:
        As for :class:`HypeRService`; every worker builds its own from these.
    n_shards:
        Number of workers, for a ``Database``.
    inline:
        Force the in-process fallback (no subprocesses).  ``None`` tries real
        processes first and degrades automatically.

    Workers start by ``fork`` when it is available and the parent runs a
    single thread (the snapshot maps into them without pickling), else by
    ``forkserver``, else by the platform's default start method.

    Life cycle, under one re-entrant lock: the workers start lazily at the
    pool's snapshot, which a service's commits keep the latest
    (:meth:`advance`); the pool serves only that generation (:meth:`run_batch`).
    :meth:`stop` or a failed move stops them until the next crossing.
    """

    FIGURES = (
        Figure("mode", attrgetter("mode")),
        Figure("n_shards", attrgetter("n_shards"), "hyper_pool_shards",
               f"Shard pool n_shards{_ABSENT}"),
        Figure("n_broadcasts", attrgetter("n_broadcasts"), "hyper_pool_broadcasts_total",
               f"Shard pool n_broadcasts{_ABSENT}", "counter"),
        Figure("n_updates", attrgetter("n_updates"), "hyper_pool_updates_total",
               f"Shard pool n_updates{_ABSENT}", "counter"),
        Figure("generation", attrgetter("generation")),
        Figure("bytes_to_workers", attrgetter("bytes_to_workers")),
        Figure("bytes_from_workers", attrgetter("bytes_from_workers")),
        Figure(None, lambda pool: pool.bytes_to_workers + pool.bytes_from_workers,
               "hyper_broadcast_bytes_total",
               "Bytes crossing the shard-worker queues (both directions)", "counter"),
        Figure("update_bytes_last", attrgetter("update_bytes_last")),
        Figure("shm", _shm),
        Figure(None, lambda pool: (_shm(pool) or {}).get("live_bytes", 0),
               "hyper_shm_bytes", "Live shared-memory snapshot bytes owned by the shard pool"),
        Figure("fallback_reason", attrgetter("fallback_reason")),
    )

    def __init__(
        self,
        database: Database | ShardPlan,
        causal_dag: CausalDAG | None,
        config: EngineConfig,
        *,
        n_shards: int = 1,
        inline: bool | None = None,
        generation: int = 0,
    ) -> None:
        if isinstance(database, ShardPlan):
            n_shards, database = len(database), database[0].database
        if n_shards < 1:
            raise ShardPoolError(f"a shard pool needs at least one worker, got {n_shards}")
        self.database = database
        self.n_shards = n_shards
        self.causal_dag = causal_dag
        self.config = config
        self.generation = generation
        self._force_inline = bool(inline)
        self._io_lock = threading.RLock()
        self._dealer = PlanDealer()
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

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "ShardPool":
        """Start the workers (idempotent); falls back to inline mode on failure."""
        with self._io_lock:
            if self.mode == "closed":
                raise ShardPoolError("the shard pool has been closed")
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
                self._scatter("ping", dict.fromkeys(range(self.n_shards)))
            except Exception as error:  # noqa: BLE001 - degrade, never fail to start
                self._stop()
                self._start_inline(f"{type(error).__name__}: {error}")
        return self

    def _start_processes(self) -> None:
        import multiprocessing as mp

        # fork maps the snapshot into workers for free (copy-on-write), but
        # forking a *multithreaded* parent can clone locks in their held state
        # and deadlock the child.  When other threads are already running
        # (e.g. the pool starts lazily inside an HTTP handler thread), fall
        # back to a pickling start method; callers that want the cheap fork
        # should start the pool before spawning threads
        # (HypeRService.start_pool, done by `repro serve`).
        available = mp.get_all_start_methods()
        if "fork" in available and threading.active_count() == 1:
            method = "fork"
        elif "forkserver" in available:
            method = "forkserver"
        else:
            method = None
        ctx = mp.get_context(method)
        spec: Any = self.database
        if shm_available():
            # Encode the database ONCE into one shared-memory segment; every
            # worker decodes the same mapping, so start-up ships
            # descriptor-sized messages and the host holds one copy of the
            # column data regardless of worker count.
            self._shm_manager = SegmentManager()
            manifest, buffers = encode_database(self.database)
            spec = {
                "manifest": manifest,
                "descriptor": self._shm_manager.put(self.generation, buffers),
            }
        self._result_queue = ctx.Queue()
        for index in range(self.n_shards):
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(
                    index, spec, self.causal_dag, self.config, task_queue, self._result_queue
                ),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)

    def _start_inline(self, reason: str) -> None:
        self._inline_workers = [
            ShardWorkerRuntime(index, self.database, self.causal_dag, self.config)
            for index in range(self.n_shards)
        ]
        self.mode = "inline"
        self.fallback_reason = reason

    def stop(self) -> None:
        """Stop the workers (idempotent); the next crossing starts them again.

        Takes the broadcast lock first, so a query crossing the pool when
        it is called finishes and gets its answers before the workers are
        told to exit — readers never observe a mid-query teardown.
        """
        with self._io_lock:
            if self.mode != "closed":
                self._stop()

    def close(self) -> None:
        """Stop the workers; the pool cannot be restarted afterwards."""
        with self._io_lock:
            self._stop()
            self.mode = "closed"

    def _stop(self) -> None:
        self._teardown_processes()
        if self._shm_manager is not None:
            self._shm_manager.close_all()
            self._shm_manager = None
        self._inline_workers = None
        self.mode = "unstarted"

    def release_snapshot(self, generation: int) -> int:
        """Unlink the shm segments of a retired database generation.

        Called from the service's MVCC retire hook once no reader can reach
        ``generation`` any more.  Safe there: it only touches the segment
        manager's own leaf-level lock (never the broadcast lock), workers keep
        their existing mappings (unlink removes the name, not the memory), and
        unknown generations — or a pool without shared memory — are a no-op.
        Returns the number of segments unlinked.
        """
        manager = self._shm_manager
        return 0 if manager is None else manager.release(generation)

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
        for channel in (*self._task_queues, self._result_queue):
            try:
                if channel is not None:
                    channel.close()
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        self._processes, self._task_queues, self._result_queue = [], [], None

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown guard
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- task plumbing -----------------------------------------------------------------

    def _scatter(self, kind: str, payloads: Mapping[int, Any]) -> dict[int, Any]:
        """Send one task to each worker ``payloads`` names; collect its result.

        The one crossing: a commit names every worker, a batch only the ones
        it dealt queries to.  The broadcast lock makes each scatter atomic
        with respect to every other crossing: an ``update`` scatter never
        interleaves with a query, so every answer comes from one database
        generation.  Starts the workers if they are not running.  Raises
        :class:`ShardPoolError` if any worker reports a failure (for ``batch``
        tasks, per-subtask failures are embedded in the payloads and handled
        by the caller instead).
        """
        with self._io_lock:
            self.start()
            self.n_broadcasts += 1
            if self.mode == "inline":
                assert self._inline_workers is not None
                outs: dict[int, Any] = {}
                for index, payload in payloads.items():
                    try:
                        outs[index] = self._inline_workers[index].handle(kind, payload)
                    except ShardPoolError:
                        raise
                    except Exception as error:  # noqa: BLE001 - uniform report
                        raise _worker_error(index, _describe_error(error))
                return outs
            self._task_counter += 1
            task_id = self._task_counter
            with obs_trace.span("shard.scatter", kind=kind, shards=len(payloads)) as sspan:
                bytes_out = 0
                for index, payload in payloads.items():
                    blob = pickle.dumps(
                        (task_id, kind, payload), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    bytes_out += len(blob)
                    self._task_queues[index].put(blob)
                self.bytes_to_workers += bytes_out
                by_shard: dict[int, Any] = {}
                failures: list[tuple[int, tuple[str, str, str]]] = []
                bytes_in = 0
                while len(by_shard) < len(payloads):
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
                        continue  # stale result from an abandoned scatter
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
            return by_shard

    def _check_workers_alive(self) -> None:
        for process in self._processes:
            if not process.is_alive():
                raise ShardPoolError(
                    f"shard worker {process.name!r} died with exit code "
                    f"{process.exitcode}; the pool must be recreated"
                )

    # -- live updates ------------------------------------------------------------------

    def advance(
        self, database: Database, columns: frozenset[Column], generation: int, *,
        causal_dag: Any = None, replace_dag: bool = False, clear_caches: bool = False,
    ) -> None:
        """Move this pool to a service's commit of ``columns``: ``database`` at
        ``generation``.  Running workers move in place (:meth:`apply_update`).
        A failed move is logged, not raised — the commit stands — and stops
        them, to start again lazily at the new snapshot."""
        with self._io_lock:
            if self.mode in ("processes", "inline"):
                try:
                    return self.apply_update(
                        database, columns, generation=generation,
                        causal_dag=causal_dag, replace_dag=replace_dag, clear_caches=clear_caches,
                    )
                except Exception:  # noqa: BLE001 - the commit stands
                    logging.getLogger(__name__).warning(
                        "moving the shard pool to generation %d failed", generation, exc_info=True
                    )
                    self._stop()
            self.database, self.generation = database, generation
            if replace_dag:
                self.causal_dag = causal_dag

    def apply_update(
        self,
        database: Database,
        columns: frozenset[Column],
        *,
        generation: int,
        causal_dag: Any = None,
        replace_dag: bool = False,
        clear_caches: bool = False,
    ) -> None:
        """Move the running workers to ``database`` in place.

        Ships every worker one patch per relation of the commit's changed
        ``columns`` (:meth:`EngineState.committed
        <repro.service.state.EngineState.committed>`): its schema, and its
        length and those of its columns it still has, in one segment, once
        for all workers, through shared memory when available.  A new
        relation, or one whose length changed, ships every column.  Alongside
        ride the new relation order and foreign keys.  ``update_bytes_last``
        counts what the commit moved: the queue messages plus the patch
        segments' bytes.  Workers stay alive across the update — their fitted
        estimators that read no changed column stay warm — and the
        broadcast lock serialises the update against in-flight queries, so
        every answer comes from exactly one generation (tracked by
        ``generation``; retired generations' segments are dropped via
        :meth:`release_snapshot`).

        ``replace_dag=True`` ships ``causal_dag`` as the workers' new causal
        background knowledge, and ``clear_caches=True`` drops every worker
        plan cache — the in-place forms of ``update_causal_dag`` and
        ``invalidate``.
        """
        self.start()
        patches: list[dict[str, Any]] = []
        segment_bytes = 0  # patch bytes placed in shared memory, not the queues
        for name in {name for name, _ in columns}:
            if name not in database:
                continue
            relation = database[name]
            shipped = [a for a in relation.attribute_names if (name, a) in columns]
            store = relation.columnar_store()
            header, buffers = store_to_buffers(
                ColumnStore({a: store.columns[a] for a in shipped}, store.length)
            )
            descriptor = ship_buffers(buffers, self._shm_manager, generation)
            segment_bytes += descriptor.get("nbytes", 0)
            patches.append(
                {
                    "name": name,
                    "schema": relation.schema,
                    "header": header,
                    "descriptor": descriptor,
                }
            )
        payload: dict[str, Any] = {
            "patches": patches,
            "relation_names": list(database.relation_names),
            "foreign_keys": list(database.foreign_keys),
        }
        if replace_dag:
            payload["replace_dag"] = True
            payload["causal_dag"] = causal_dag
        if clear_caches:
            payload["clear_caches"] = True
        bytes_before = self.bytes_to_workers
        with obs_trace.span("shard.update", shards=self.n_shards, generation=generation):
            self._scatter("update", dict.fromkeys(range(self.n_shards), payload))
        if self.mode == "inline":
            # Inline workers receive the payload by reference; measure what a
            # process pool would have shipped so the commit-payload accounting
            # (and the tests asserting on it) hold in either mode.
            self.update_bytes_last = self.n_shards * len(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self.bytes_to_workers += self.update_bytes_last
        else:
            self.update_bytes_last = (
                self.bytes_to_workers - bytes_before + segment_bytes
            )
        if replace_dag:
            self.causal_dag = causal_dag
        self.database = database
        self.generation = generation
        self.n_updates += 1

    # -- query execution ---------------------------------------------------------------

    @staticmethod
    def _attach_worker_spans(outs: Sequence[Any]) -> None:
        """Pop each shipped worker span (always, so a result's ``metadata``
        stays what the unsharded path produces) and re-attach it under the
        current span."""
        for out in outs:
            meta = getattr(out, "metadata", None)
            raw = meta.pop("worker_span", None) if isinstance(meta, dict) else None
            if raw is not None:
                obs_trace.add_span(
                    raw["name"],
                    float(raw.get("duration_ms", 0.0)) / 1000.0,
                    meta=raw.get("meta"),
                    children=raw.get("children"),
                )

    def run_batch(
        self,
        queries: Sequence[str | WhatIfQuery | HowToQuery | Exception],
        *,
        return_errors: bool = False,
        fingerprints: Sequence[PlanFingerprint] | None = None,
        exhaustive: bool = False,
        generation: int | None = None,
    ) -> list[Any] | None:
        """Answer a batch with one scatter round-trip: whole queries, dealt by plan.

        A query is its text or its object, and crosses as it is.  Every
        query, what-if or how-to, is dealt to a worker by plan
        (:meth:`PlanDealer.deal <repro.service.fingerprint.PlanDealer.deal>` —
        a plan's queries go to the worker that has it fitted, so a commit
        costs one refit per plan, not one per plan and worker) by the
        ``fingerprints`` a service already took (aligned with ``queries``;
        taken here without them), and each
        worker's service answers its share from the full zero-copy snapshot
        it already holds, through its warm plan caches.  One task message and
        one result message per worker dealt to cover the whole suite, and the
        answers are the unsharded engine's answers by construction — no
        merge step, nothing to drift.  A single query is a batch of one;
        ``exhaustive`` applies to every how-to of the batch.

        Entries that are already exceptions pass through; failures are
        captured per query, naming the worker that ran it, with
        ``return_errors=True``, else the first one is raised.  With a
        ``generation`` the pool has moved past, nothing is dealt or crosses:
        ``None``.
        """
        results: list[Any] = list(queries)
        entries = [
            index for index, query in enumerate(queries) if not isinstance(query, Exception)
        ]
        if entries:
            if fingerprints is None:
                fingerprints = {
                    index: fingerprint_query(_parsed(queries[index]), self.config)
                    for index in entries
                }
            with self._io_lock:  # checked, dealt and crossed at one generation
                if generation is not None and generation != self.generation:
                    return None
                dealt = self._dealer.deal(
                    [fingerprints[index] for index in entries], range(self.n_shards)
                )
                slots: dict[int, list[int]] = {worker: [] for worker in sorted(set(dealt))}
                for worker, index in zip(dealt, entries):
                    slots[worker].append(index)
                with obs_trace.span(
                    "shard.scatter_batch", shards=len(slots), batch=len(entries)
                ) as bspan:
                    per_worker = self._scatter(
                        "batch",
                        {
                            worker: ([queries[index] for index in indices], exhaustive)
                            for worker, indices in slots.items()
                        },
                    )
                    if bspan is not None:
                        bspan.meta["mode"] = self.mode
                    self._attach_worker_spans(
                        [out for worker in slots for ok, out in per_worker[worker] if ok]
                    )
            for worker, indices in slots.items():
                for index, (ok, out) in zip(indices, per_worker[worker]):
                    results[index] = out if ok else _worker_error(worker, out)
        return results if return_errors else raise_first_error(results)

    # -- instrumentation ---------------------------------------------------------------

    def _live(self) -> bool:
        """Whether the workers run; the pool's series are absent otherwise."""
        return self.mode in ("processes", "inline")

    def live_stats(self) -> dict[str, Any] | None:
        """:meth:`stats` while the workers run, else ``None``."""
        return self.stats() if self._live() else None
