"""One generation's engine state, the keys derived from it, and the commit diff:
what a :class:`~repro.service.session.HypeRService` snapshot holds, immutable
once built.  A commit builds the next state (:meth:`EngineState.committed`,
:meth:`EngineState.rebuilt`) with the columns it changed, which is all the
caches and the shard pool are told (:class:`Snapshots`, the service's pins
and commits).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Sequence

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.howto import HowToEngine
from ..core.queries import HowToQuery, WhatIfQuery
from ..core.whatif import WhatIfEngine
from ..exceptions import QuerySemanticsError
from ..probdb.blocks import label_columns
from ..relational.database import Database
from ..relational.relation import changed_attributes
from ..relational.view import UseSpec
from .cache import QueryCaches
from .fingerprint import Column, dag_key, plan_columns, use_key
from .versions import Commit, Snapshot, VersionStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..shard.pool import ShardPool

__all__ = ["EngineState", "Snapshots", "with_columns"]


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
class EngineState:
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
    #: this state's bound plans (:class:`~repro.service.plan.BoundPlan`), by
    #: text key and by plan group
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
    ) -> "EngineState":
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

    # -- the commit diff -------------------------------------------------------------------

    def committed(self, database: Database) -> tuple["EngineState", frozenset[Column]]:
        """The next state, with ``database``, and the columns it changed.

        Columns are compared by object identity against this state's
        (:func:`~repro.relational.relation.changed_attributes`); a column a
        relation lost counts too, and a relation has a key, so one added or
        removed changes columns.  Only the changed columns' generations are
        bumped, with their relations'.  A commit that changes nothing is
        this state and no columns.
        """
        old = self.database
        changed: set[Column] = set()
        for name in {*old.relation_names, *database.relation_names}:
            before = old[name] if name in old else None
            after = database[name] if name in database else None
            if before is after:
                continue
            came = () if after is None else changed_attributes(before, after)
            gone = () if before is None else before.attribute_names
            gone = [a for a in gone if after is None or a not in after]
            changed.update((name, a) for a in (*came, *gone))
        if not changed:
            return self, frozenset()
        names = {name for name, _ in changed}
        relations = dict(self.relation_generations)
        columns = dict(self.column_generations)
        for name in names:
            relations[name] = relations.get(name, 0) + 1
        for column in changed:
            columns[column] = columns.get(column, 0) + 1
        same_schema = old.foreign_keys == database.foreign_keys and all(
            name in old and name in database and old[name].schema == database[name].schema
            for name in names
        )
        reads = self.reads if same_schema else None
        state = self.build(
            self.generation + 1, database, self.causal_dag, self.whatif.config,
            relations, columns, reads,
        )
        return state, frozenset(changed)

    def rebuilt(self, causal_dag: CausalDAG | None) -> "EngineState":
        """The same database as the next generation, under ``causal_dag``: every
        relation's generation is bumped, every column's kept (same columns, same
        data, and the DAG identity is in every key)."""
        relations = {name: gen + 1 for name, gen in self.relation_generations.items()}
        return self.build(
            self.generation + 1, self.database, causal_dag, self.whatif.config,
            relations, self.column_generations,
        )

    # -- keys ----------------------------------------------------------------------------

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

    def plan_generations(
        self, query: "WhatIfQuery | HowToQuery", structure: Hashable, when: Hashable
    ) -> tuple:
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


class Snapshots:
    """A service's snapshot store, as its readers and writers see it: the pins a
    query takes, and the commits — lock, install, evict, move the pool.

    :class:`~repro.service.session.HypeRService` is one; it sets these.
    """

    versions: VersionStore
    caches: "QueryCaches"
    _pool: "ShardPool | None"
    _commit_lock: Any
    _m_noop_commits: Any

    @property
    def _state(self) -> EngineState:
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
    def pinned(self, generation: int | None = None) -> Iterator[EngineState]:
        """:meth:`retain` for the block's duration (one query's whole execution),
        yielding the pinned engine state."""
        with self.versions.pin(generation) as snapshot:
            yield snapshot.state

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

    # -- commits -------------------------------------------------------------------------

    def invalidate(self) -> None:
        """Bump every generation counter and drop every cached plan component,
        the shard pool's workers' too (they are moved, not restarted)."""
        with self._commit_lock:
            self._install(self._state.rebuilt(self._state.causal_dag))

    def update_database(self, database: Database) -> Commit:
        """Commit a new database snapshot with column-level invalidation.

        Only the columns that are not the current snapshot's own objects are
        changed (:meth:`EngineState.committed
        <repro.service.state.EngineState.committed>`; build the new database
        with ``service.database.with_relation(relation.with_column(...))``),
        so what reads none of them stays warm.  The commit is MVCC: in-flight
        readers keep their pinned snapshot, never paused, never a blend, and
        the shard pool moves in place, shipping only the changed columns.  A
        commit that changes nothing is a no-op: no generation bump, no cache
        eviction, and the pool stays untouched.

        Returns the set of relation names whose generation was bumped (empty
        for a no-op commit) as a :class:`~repro.service.versions.Commit`
        carrying the generation this commit installed (for a no-op, the
        current one).
        """
        with self._commit_lock:
            state, changed = self._state.committed(database)
            if not changed:
                self._m_noop_commits.inc()
                return Commit((), state.generation)
            self._install(state, changed)
            return Commit({name for name, _ in changed}, state.generation)

    def update_relation_columns(self, assignments: dict[str, dict[str, Any]]) -> Commit:
        """Atomically overwrite columns: ``{relation: {attribute: values}}``.

        The read-modify-write runs under the commit lock, so concurrent
        callers (e.g. two ``/v1/update`` requests) serialize and neither can
        lose the other's columns; the resulting :meth:`update_database`
        commit (see :func:`~repro.service.state.with_columns`) bumps only the
        relations named here.
        """
        with self._commit_lock:
            return self.update_database(with_columns(self.database, assignments))

    def update_causal_dag(self, causal_dag: CausalDAG | None) -> None:
        """Swap in new causal background knowledge; invalidates cached state.
        The shard pool's workers get the new DAG in place and drop their plans."""
        with self._commit_lock:
            self._install(self._state.rebuilt(causal_dag), replace_dag=True)

    def _install(
        self, state: EngineState, changed: frozenset[Column] = frozenset(), *, replace_dag=False
    ) -> None:
        """Commit ``state`` (commit lock held): evict what reads the ``changed``
        columns — or, for a rebuild (none), every cache — and move the pool,
        which never raises (:meth:`~repro.shard.pool.ShardPool.advance`)."""
        self.versions.commit(state, generation=state.generation)
        if changed:
            # Only frees memory: an entry reading a changed column has a key
            # the new generation never asks for (answers go with their relations).
            self.caches.evict_tagged(changed | {name for name, _ in changed})
        else:
            self.caches.clear()
        if self._pool is not None:
            self._pool.advance(
                state.database,
                changed,
                state.generation,
                causal_dag=state.causal_dag,
                replace_dag=replace_dag,
                clear_caches=not changed,
            )
