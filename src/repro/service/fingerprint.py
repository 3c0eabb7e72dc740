"""Canonical logical-plan fingerprints for parsed HypeR queries.

A query's cost is dominated by work that depends only on its *structure*:
materialising the relevant view, projecting the causal DAG, choosing a
backdoor set and fitting regressors.  The *parameters* — update constants
("= 1.1 × PRE(Price)" vs "= 1.3 × PRE(Price)"), ``When``/``For`` literals —
only change cheap vectorized arithmetic at prediction time.  This module
separates the two so the service layer can reuse the expensive state:

* :attr:`PlanFingerprint.estimator_key` — identity of the fitted
  :class:`~repro.core.estimator.PostUpdateEstimator`: database generation
  (any hashable — the service passes the generation of each column the
  estimator reads, :func:`plan_columns`, so a commit to any other column
  leaves the key, and with it the cached estimator, intact),
  causal-DAG identity, ``Use`` specification, update/output attributes, the
  *structural* identity of the ``For`` clause (literals masked — they select
  regression targets, which the estimator disambiguates internally via
  :func:`repro.core.whatif.regressor_cache_key`) and the engine config.
  The ``When`` clause is deliberately absent: scope affects which rows are
  predicted, never what is fitted.  What-if and how-to queries with the same
  components share one estimator.
* :attr:`PlanFingerprint.plan_key` — the full logical plan: the estimator key
  plus the generations of the columns the ``When`` clause reads, kind,
  aggregate, the structural identity of every clause and the update-function
  shapes, all literals masked.
* :attr:`PlanFingerprint.parameter_key` — everything masked out above:
  update constants and clause literals.  ``(plan_key, parameter_key)``
  identifies the query exactly (the follow-on result cache keys on it).

All keys are nested tuples of plain hashable values, built from
:meth:`repro.relational.expressions.Expr.canonical` — never ``Expr`` objects,
whose ``==`` is overloaded to build comparison nodes.  The generations come from
a ``reads(structure, when_structure)`` callback the service memoises per plan.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Hashable, Sequence

from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.estimator import adjustment_set, build_view_dag
from ..core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from ..core.updates import AttributeUpdate
from ..core.whatif import normalise_for_clause, outcome_attributes
from ..exceptions import QuerySemanticsError
from ..relational.database import Database
from ..relational.expressions import LITERAL_SLOT, _key_value
from ..relational.view import UseSpec

__all__ = [
    "PlanDealer",
    "PlanFingerprint",
    "config_key",
    "dag_key",
    "fingerprint_query",
    "fingerprint_what_if",
    "fingerprint_how_to",
    "plan_columns",
    "update_key",
    "use_key",
]


def dag_key(dag: CausalDAG | None) -> Hashable:
    """Stable identity of a causal DAG (nodes plus edges with markers)."""
    if dag is None:
        return ("dag", None)
    edges = tuple(
        sorted((e.source, e.target, e.cross_tuple, e.within or "") for e in dag.edges)
    )
    return ("dag", tuple(sorted(dag.nodes)), edges)


Column = tuple[str, str]


def plan_columns(
    query: WhatIfQuery | HowToQuery, database: Database, dag: CausalDAG | None, config: EngineConfig
) -> tuple[tuple[Column, ...], tuple[Column, ...]]:
    """The ``(relation, attribute)`` columns a plan's estimator reads, and its ``When``.

    The estimator reads the ``Use`` key, join and aggregated columns, the
    update, output and ``Post`` attributes, the ``For`` attributes and its
    backdoor set (taken from the schema and the DAG); a view column through
    the columns it is built from (:meth:`~repro.relational.view.UseSpec.column_sources`).
    A plan that cannot be planned, and fails when it runs, reads every column.
    """
    use, updates = query.use, query.update_attributes
    try:
        sources = use.column_sources(database)
        key = database[use.base_relation].schema.key
        outcomes = outcome_attributes(query, normalise_for_clause(query.for_clause))
        view_dag = build_view_dag(dag, use, database)
        backdoor = adjustment_set(list(sources), key, view_dag, updates, outcomes, config)
    except Exception:  # noqa: BLE001 - the plan raises its own error when it runs
        every = tuple((r.name, attribute) for r in database for attribute in r.attribute_names)
        return every, every

    def read(*attributes: Any) -> tuple[Column, ...]:
        return tuple(sorted({c for a in chain(*attributes) for c in sources.get(a, ())}))

    aggregated = [agg.name for agg in use.aggregated]
    clause = query.for_clause.referenced_attributes()
    return (
        read(key, aggregated, updates, outcomes, (name for name, _ in clause), backdoor),
        read(name for name, _ in query.when.referenced_attributes()),
    )


def use_key(use: UseSpec) -> Hashable:
    """Stable identity of a ``Use`` specification (view name excluded)."""
    aggregated = tuple(
        (a.name, a.relation, a.attribute, a.how) for a in use.aggregated
    )
    joins = tuple(
        (other, tuple(condition)) for other, condition in sorted(use.joins.items())
    )
    attributes = tuple(use.attributes) if use.attributes is not None else None
    return ("use", use.base_relation, attributes, aggregated, joins)


@lru_cache(maxsize=16)
def config_key(config: EngineConfig) -> Hashable:
    """Stable identity of an engine configuration (a frozen value: built once per value)."""
    return ("config",) + tuple(
        (f.name, _key_value(getattr(config, f.name))) for f in fields(config)
    )


def _function_params(function: Any, literals: bool) -> Hashable:
    if not literals:
        return LITERAL_SLOT
    if is_dataclass(function):
        return tuple(_key_value(getattr(function, f.name)) for f in fields(function))
    return repr(function)


def update_key(updates: Sequence[AttributeUpdate], literals: bool = True) -> Hashable:
    """Identity of an ``Update`` clause; ``literals=False`` masks the constants."""
    return tuple(
        (u.attribute, type(u.function).__name__, _function_params(u.function, literals))
        for u in updates
    )


def _limits_key(limits: Sequence[LimitConstraint], literals: bool) -> Hashable:
    out = []
    for limit in limits:
        if literals:
            values: Hashable = (
                limit.lower,
                limit.upper,
                _key_value(limit.allowed_values),
                limit.max_l1,
            )
        else:
            values = (
                limit.lower is not None,
                limit.upper is not None,
                None if limit.allowed_values is None else len(limit.allowed_values),
                limit.max_l1 is not None,
            )
        out.append((limit.attribute, values))
    return tuple(out)


@dataclass(frozen=True)
class PlanFingerprint:
    """Canonical identity of a query, split into shareable structure and parameters."""

    kind: str
    estimator_key: Hashable
    plan_key: Hashable
    parameter_key: Hashable
    #: the ``(relation, attribute)`` columns whose generations the keys embed
    #: (the service's cache tags); empty when taken without ``reads``
    columns: frozenset = field(default=frozenset(), compare=False)

    def bind(self, query: WhatIfQuery) -> "PlanFingerprint":
        """The fingerprint of ``query``, a what-if of this fingerprint's text key
        (:func:`~repro.lang.parser.parse_keyed`): this one, with ``query``'s update
        constants.  Texts of one key differ in nothing else."""
        return PlanFingerprint(
            "what-if",
            self.estimator_key,
            self.plan_key,
            (update_key(query.updates), *self.parameter_key[1:]),
            self.columns,
        )

    @property
    def query_key(self) -> Hashable:
        """Exact query identity (plan plus parameters)."""
        return (self.plan_key, self.parameter_key)

    @property
    def variant_key(self) -> Hashable:
        """A plan group: what-ifs differing only in update constants, which a
        batch evaluates together; a how-to is a group of its own."""
        if self.kind == "what-if":
            return (self.plan_key, self.parameter_key[1:])
        return self.query_key

    @property
    def home_key(self) -> Hashable:
        """:attr:`estimator_key` without its generation and DAG slots.

        What :class:`PlanDealer` homes a plan by: it names the same plan at
        every generation, so a plan keeps its worker across commits.
        """
        kind, _generation, _dag, *rest = self.estimator_key
        return (kind, *rest)

    @property
    def digest(self) -> str:
        """Short stable hex digest of the plan structure, for logs and stats."""
        return hashlib.sha256(repr(self.plan_key).encode()).hexdigest()[:12]

    def log_key(self) -> tuple[str, str]:
        """What the slow-query log keys this plan's completions by: its digest and kind."""
        return self.digest, self.kind


def _estimator_keys(query, output, config, generation, dag, dag_identity, reads) -> tuple:
    """The estimator key, the ``When`` generations, the ``When`` structure and the
    columns read: ``reads(structure, when_structure)`` supplies the generations."""
    dag_id = dag_identity if dag_identity is not None else dag_key(dag)
    structure = (
        use_key(query.use),
        tuple(query.update_attributes),
        output,
        query.for_clause.canonical(literals=False),
        config_key(config),
    )
    when = query.when.canonical(literals=False)
    generation, scope, columns = (
        (generation, None, frozenset()) if reads is None else reads(structure, when)
    )
    return ("estimator", generation, dag_id, *structure), scope, when, columns


def fingerprint_what_if(
    query: WhatIfQuery,
    config: EngineConfig,
    *,
    generation: Hashable = 0,
    dag: CausalDAG | None = None,
    dag_identity: Hashable | None = None,
    reads: Callable | None = None,
) -> PlanFingerprint:
    """Fingerprint a what-if query (see module docstring for the key split)."""
    estimator_key, scope, when_structure, columns = _estimator_keys(
        query, query.output_attribute, config, generation, dag, dag_identity, reads
    )
    plan_key = (
        "what-if",
        estimator_key,
        scope,
        query.output_aggregate,
        when_structure,
        update_key(query.updates, literals=False),
    )
    parameter_key = (
        update_key(query.updates, literals=True),
        query.when.canonical(literals=True),
        query.for_clause.canonical(literals=True),
    )
    return PlanFingerprint("what-if", estimator_key, plan_key, parameter_key, columns)


def fingerprint_how_to(
    query: HowToQuery,
    config: EngineConfig,
    *,
    generation: Hashable = 0,
    dag: CausalDAG | None = None,
    dag_identity: Hashable | None = None,
    reads: Callable | None = None,
) -> PlanFingerprint:
    """Fingerprint a how-to query.

    The estimator key matches the one a what-if query with the same ``Use``,
    update attributes, output attribute and ``For`` structure would produce,
    so both query families share fitted estimators through the service cache.
    """
    estimator_key, scope, when_structure, columns = _estimator_keys(
        query, query.objective_attribute, config, generation, dag, dag_identity, reads
    )
    plan_key = (
        "how-to",
        estimator_key,
        scope,
        query.objective_aggregate,
        query.maximize,
        query.max_updates,
        query.candidate_buckets,
        tuple(query.candidate_multipliers),
        when_structure,
        _limits_key(query.limits, literals=False),
    )
    parameter_key = (
        query.when.canonical(literals=True),
        query.for_clause.canonical(literals=True),
        _limits_key(query.limits, literals=True),
    )
    return PlanFingerprint("how-to", estimator_key, plan_key, parameter_key, columns)


def fingerprint_query(
    query: WhatIfQuery | HowToQuery,
    config: EngineConfig,
    *,
    generation: Hashable = 0,
    dag: CausalDAG | None = None,
    dag_identity: Hashable | None = None,
    reads: Callable | None = None,
) -> PlanFingerprint:
    """Fingerprint either query family (dispatch on the query type)."""
    options = dict(generation=generation, dag=dag, dag_identity=dag_identity, reads=reads)
    if isinstance(query, WhatIfQuery):
        return fingerprint_what_if(query, config, **options)
    if isinstance(query, HowToQuery):
        return fingerprint_how_to(query, config, **options)
    raise QuerySemanticsError(
        f"cannot fingerprint query object of type {type(query).__name__}"
    )


#: A plan leaves its home only when the home would carry more than this
#: multiple of the batch's fair share (consistent hashing with bounded loads).
_BOUNDED_LOAD = 1.25
#: Plans a dealer remembers a home for (least recently dealt dropped first):
#: a few times what the workers' estimator caches hold between them.
_MAX_HOMES = 256


class PlanDealer:
    """Deals whole queries to workers by plan, so fitted state is reused in place.

    The one dealing rule of the shard pool (worker processes) and the cluster
    coordinator (nodes); ``docs/service.md``, "Dealing by plan".  Any worker
    can answer any query; what differs is what it has *fitted*, and a commit
    refits a plan that reads its columns wherever it lives.  So a batch is grouped
    by the :attr:`PlanFingerprint.home_key` (a plan keeps it across commits)
    of the fingerprints its caller already took, and each group goes to the
    plan's remembered *home*.  A plan seen for the first time, or whose home is not
    among ``workers`` (an unhealthy node), is homed on the least-loaded worker
    — fewest queries of this batch, then fewest plans homed, then first in
    ``workers`` — and stays there.  A group larger than the fair share
    ``ceil(n / k)`` is cut into chunks of it, the first for the home and the
    rest for the least-loaded workers, so a one-plan sweep still uses every
    worker; and a plan leaves home, for good, only when the home would carry
    more than ``_BOUNDED_LOAD`` times the fair share.  Deterministic for a
    given sequence of calls, and thread-safe.
    """

    def __init__(self) -> None:
        self._homes: OrderedDict[Hashable, int] = OrderedDict()
        self._lock = threading.Lock()

    def deal(
        self, fingerprints: Sequence[PlanFingerprint], workers: Sequence[int]
    ) -> list[int]:
        """The member of ``workers`` that answers each query, aligned with its fingerprint."""
        groups: dict[Hashable, list[int]] = {}
        for position, fingerprint in enumerate(fingerprints):
            groups.setdefault(fingerprint.home_key, []).append(position)
        fair = max(1, -(-len(fingerprints) // len(workers)))
        bound = math.ceil(_BOUNDED_LOAD * fair)
        load = dict.fromkeys(workers, 0)
        dealt = [workers[0]] * len(fingerprints)
        with self._lock:
            homed = Counter(self._homes.values())
            for key, positions in groups.items():
                home = self._homes.get(key)
                for start in range(0, len(positions), fair):
                    chunk = positions[start : start + fair]
                    if start == 0 and home in load and load[home] + len(chunk) <= bound:
                        worker = home
                    else:
                        worker = min(workers, key=lambda w: (load[w], homed[w]))
                        if start == 0:
                            if home is not None:
                                homed[home] -= 1
                            homed[worker] += 1
                            self._homes[key] = worker
                    load[worker] += len(chunk)
                    for position in chunk:
                        dealt[position] = worker
                self._homes.move_to_end(key)
            while len(self._homes) > _MAX_HOMES:
                self._homes.popitem(last=False)
        return dealt
