"""One shard node of the cluster: the existing front door plus ``/v1/partial``.

A :class:`ShardServer` wraps a full :class:`~repro.service.session.HypeRService`
(every node holds the complete database snapshot) plus one
:class:`~repro.shard.pool.ShardWorkerRuntime` per retained generation — a
second, cache-carrying engine over the same snapshot that keeps answering at
a generation the service has already left.

:class:`ShardServerApp` mounts the public endpoint table plus the node's two
internal rows (:meth:`ShardServer.endpoints`) on the asyncio front door:

* ``POST /v1/partial`` — one leg at a named generation, on the ``admitted``
  lane exactly like ``/v1/query`` (a leg competes with local public queries
  for the same executor).  ``kind="answers"`` moves the queries to the data:
  whole what-ifs and how-tos (``"exhaustive"`` rides the leg) are answered
  *at* the named generation, and one scalar answer — or error envelope — per
  query comes back.  The node's own service (all its caches) answers when it
  stood at that generation before the first and after the last answer
  (generations only grow, so every snapshot pinned in between was that one);
  otherwise — the node is mid-flip, ahead of the coordinator — the retained
  runtime of that generation does, through
  :meth:`~repro.shard.pool.ShardWorkerRuntime.run_full`, and the body says
  ``"retained": true``.  A generation this node does not retain answers
  ``409 stale_generation`` so the coordinator fails over.  ``kind="whatif"``,
  one row-scatter partial of one what-if on the node's shard slice, has no
  caller left in ``src/`` (``perf/probes.py`` posts and times it; it leaves
  with ROADMAP 1(d) + 2(d)).
* ``POST /v1/cluster/update`` — the two-phase commit fan-out.  ``stage``
  builds the next generation's database and runtime off to the side (queries
  keep answering from the current one); ``flip`` commits that database
  through the node's own MVCC service, so the node and the coordinator agree
  on generation numbers.  On the ``control`` lane like ``/v1/update``: a
  commit must land on a saturated node, so it bypasses admission.

The previous generation's runtime is retained (like the in-process pool's
``pinned_fallbacks``), so a leg racing a cluster-wide flip still gets exact
answers for its pinned generation from nodes that already flipped.
"""

from __future__ import annotations

import threading
from typing import Any

from ..api import endpoints as api
from ..api.endpoints import PayloadError
from ..api.schemas import API_VERSION, ErrorEnvelope, UpdateRequest
from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.queries import WhatIfQuery
from ..core.results import HowToResult
from ..exceptions import QuerySemanticsError
from ..obs import trace as obs_trace
from ..probdb.blocks import block_labels
from ..relational.database import Database
from ..service.session import HypeRService
from ..shard.partition import partition_database
from ..shard.pool import ShardWorkerRuntime
from ..aserve.app import AsyncApp
from . import wire

__all__ = ["PARTIAL_PATH", "CLUSTER_UPDATE_PATH", "ShardServer", "ShardServerApp"]

#: the internal scatter-gather endpoint (not part of the public v1 table)
PARTIAL_PATH = "/v1/partial"
#: the internal two-phase update fan-out endpoint
CLUSTER_UPDATE_PATH = "/v1/cluster/update"


def _stale_generation(requested: int, retained: list[int]) -> api.ApiError:
    return api.ApiError(
        409,
        ErrorEnvelope(
            "stale_generation",
            f"generation {requested} is not retained on this node",
            {"requested": requested, "retained": retained},
        ),
    )


class ShardServer:
    """A shard node's state: full-snapshot service + per-generation runtimes.

    Parameters
    ----------
    database / causal_dag / config:
        Exactly as for :class:`HypeRService` — the node's full snapshot.
    shard_index / n_shards:
        Which slice of the deterministic partition this node's runtimes hold
        (``node_index % n_shards`` under the round-robin placement); only a
        ``kind="whatif"`` partial reads it.
    retained_generations:
        How many generations of runtimes stay answerable (>= 2 so legs
        racing a cluster flip can still complete on their pinned generation).
    """

    def __init__(
        self,
        database: Database,
        causal_dag: CausalDAG | None = None,
        config: EngineConfig | None = None,
        *,
        shard_index: int,
        n_shards: int,
        max_workers: int | None = None,
        retained_generations: int = 2,
        **service_kwargs: Any,
    ) -> None:
        if not 0 <= shard_index < n_shards:
            raise QuerySemanticsError(
                f"shard index {shard_index} out of range for {n_shards} shard(s)"
            )
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.retained_generations = max(1, retained_generations)
        self.service = HypeRService(
            database,
            causal_dag,
            config,
            max_workers=max_workers,
            **service_kwargs,
        )
        self.config = self.service.config
        self.causal_dag = causal_dag
        self._lock = threading.Lock()
        #: answerable runtimes keyed by generation (latest + pinned fallbacks)
        self._runtimes: dict[int, ShardWorkerRuntime] = {}
        #: (generation, runtime, its database) staged by phase one of a commit
        self._staged: tuple[int, ShardWorkerRuntime, Database] | None = None
        self._runtimes[self.service.generation] = self._build_runtime(
            self.service.database
        )

    # -- runtime construction ----------------------------------------------------------

    def _build_runtime(self, database: Database) -> ShardWorkerRuntime:
        # mirror HypeRService._blocks so the runtime's block labels (an
        # answer's n_blocks) match what an unsharded service would compute
        blocks = (
            block_labels(database, self.causal_dag)
            if self.causal_dag is not None and self.config.use_blocks
            else None
        )
        plan = partition_database(
            database, self.causal_dag, self.n_shards, blocks=blocks
        )
        return ShardWorkerRuntime(plan[self.shard_index], self.causal_dag, self.config)

    def runtime_generations(self) -> list[int]:
        with self._lock:
            return sorted(self._runtimes)

    def _runtime_for(self, generation: int) -> ShardWorkerRuntime:
        with self._lock:
            runtime = self._runtimes.get(generation)
            if runtime is None:
                raise _stale_generation(generation, sorted(self._runtimes))
            return runtime

    # -- the /v1/partial data plane ----------------------------------------------------

    def partial_payload(
        self, body: dict[str, Any], *, deadline: "api.RequestDeadline | None" = None
    ) -> dict[str, Any]:
        """Answer one partial request body (already JSON-decoded)."""
        kind = body.get("kind")
        if kind not in ("answers", "whatif"):
            raise PayloadError(400, f"unknown partial kind {kind!r}")
        try:
            generation = int(body.get("generation", 0))
        except (TypeError, ValueError):
            raise PayloadError(
                400, f"invalid generation {body.get('generation')!r}"
            ) from None
        if kind == "answers":
            return self._answers_payload(
                body.get("queries"), generation, deadline, bool(body.get("exhaustive"))
            )
        # kind="whatif": kept until ROADMAP 1(d) + 2(d), perf/probes.py posts it
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise PayloadError(400, "field 'query' must be a non-empty string")
        runtime = self._runtime_for(generation)
        parsed = self.service.parse(query_text)
        if deadline is not None:
            deadline.check()
        if not isinstance(parsed, WhatIfQuery):
            raise PayloadError(400, "kind 'whatif' needs a what-if query")
        with obs_trace.span("cluster.partial", kind=kind, shard=self.shard_index):
            partial = runtime.what_if_partial(parsed)
        return {
            "api_version": API_VERSION,
            "kind": kind,
            "generation": generation,
            "shard_index": self.shard_index,
            "partial": wire.encode_what_if_partial(partial),
        }

    def _answers_payload(
        self,
        texts: Any,
        generation: int,
        deadline: "api.RequestDeadline | None",
        exhaustive: bool,
    ) -> dict[str, Any]:
        """Answer whole queries, what-if or how-to, all at ``generation``."""
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise PayloadError(400, "kind 'answers' needs a 'queries' list of strings")

        def answers(execute: Any) -> list[dict[str, Any]]:
            encoded = []
            with obs_trace.span(
                "cluster.partial", kind="answers", shard=self.shard_index
            ):
                for text in texts:
                    try:
                        outcome = execute(self.service.parse(text))
                    except Exception as error:  # noqa: BLE001 - reported per query
                        outcome = error
                    encode = (
                        wire.encode_how_to_answer
                        if isinstance(outcome, HowToResult)
                        else wire.encode_what_if_answer
                    )
                    encoded.append(encode(outcome))
            return encoded

        body: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": "answers",
            "generation": generation,
        }
        # generations only grow: the same one before the first and after the
        # last answer means every snapshot pinned in between was that one
        if self.service.generation == generation:
            body["answers"] = answers(
                lambda parsed: api.execute_one(
                    self.service, parsed, deadline=deadline, exhaustive=exhaustive
                )
            )
            if self.service.generation == generation:
                return body
        # the service has left ``generation`` (this node flipped ahead of the
        # coordinator): its retained runtime still answers there, exactly
        runtime = self._runtime_for(generation)

        def at_retained(parsed: Any) -> Any:
            if deadline is not None:
                deadline.check()
            return runtime.run_full(parsed, exhaustive)

        body["answers"] = answers(at_retained)
        body["retained"] = True
        return body

    # -- the /v1/cluster/update control plane ------------------------------------------

    def cluster_update_payload(self, body: dict[str, Any]) -> dict[str, Any]:
        phase = body.get("phase")
        try:
            generation = int(body.get("generation"))
        except (TypeError, ValueError):
            raise PayloadError(
                400, f"invalid generation {body.get('generation')!r}"
            ) from None
        if phase == "stage":
            request = api.validate(
                UpdateRequest,
                {"api_version": API_VERSION, "assignments": body.get("assignments")},
            )
            assignments = {
                relation: dict(columns)
                for relation, columns in request.assignments.items()
            }
            if not assignments:
                raise PayloadError(400, "stage needs a non-empty 'assignments' object")
            self.stage(generation, assignments)
            return {
                "api_version": API_VERSION,
                "phase": "stage",
                "generation": generation,
                "staged": True,
            }
        if phase == "flip":
            changed = self.flip(generation)
            return {
                "api_version": API_VERSION,
                "phase": "flip",
                "generation": self.service.generation,
                "changed": sorted(changed),
            }
        raise PayloadError(400, f"unknown cluster-update phase {phase!r}")

    def stage(self, generation: int, assignments: dict[str, dict[str, Any]]) -> None:
        """Phase one: build the next generation's runtime without committing.

        The staged runtime's database applies ``assignments`` the same way
        :meth:`HypeRService.update_relation_columns` will at flip time, so
        the slice the runtime materialises is value-identical to the state
        the node's service commits — current queries keep answering from the
        installed runtimes meanwhile.
        """
        with self._lock:
            expected = self.service.generation + 1
            if generation != expected:
                raise _stale_generation(generation, sorted(self._runtimes))
            database = self.service.database
            for relation_name, columns in assignments.items():
                if relation_name not in database:
                    raise QuerySemanticsError(
                        f"unknown relation {relation_name!r}; database has "
                        f"{sorted(database.relation_names)}"
                    )
                relation = database[relation_name]
                for attribute, values in columns.items():
                    relation = relation.with_column(attribute, values)
                database = database.with_relation(relation)
            self._staged = (generation, self._build_runtime(database), database)

    def flip(self, generation: int) -> frozenset[str]:
        """Phase two: commit the staged database and install its runtime.

        ``stage`` derived that database from ``service.database`` and the
        generation check below proves the service has not moved since, so
        unchanged relations keep their identity and ``update_database`` bumps
        and evicts exactly what re-applying the assignments would.
        """
        with self._lock:
            if self._staged is None or self._staged[0] != generation:
                staged_gen = None if self._staged is None else self._staged[0]
                raise api.ApiError(
                    409,
                    ErrorEnvelope(
                        "stale_generation",
                        f"no staged runtime for generation {generation} "
                        f"(staged: {staged_gen})",
                        {"requested": generation, "staged": staged_gen},
                    ),
                )
            if self.service.generation + 1 != generation:
                self._staged = None
                raise _stale_generation(generation, sorted(self._runtimes))
            _gen, runtime, database = self._staged
            changed = self.service.update_database(database)
            self._runtimes[generation] = runtime
            self._staged = None
            for old in sorted(self._runtimes)[: -self.retained_generations]:
                del self._runtimes[old]
            return changed

    def close(self) -> None:
        self.service.close()

    # -- front-door integration --------------------------------------------------------

    def endpoints(self) -> tuple[api.Endpoint, ...]:
        """The node's two internal rows (not part of the public v1 table)."""
        return (
            api.Endpoint(
                "partial",
                "POST",
                PARTIAL_PATH,
                lambda backend, request, params: api.ApiResponse(
                    200, self.partial_payload(request.body, deadline=request.deadline)
                ),
                "admitted",
            ),
            api.Endpoint(
                "cluster_update",
                "POST",
                CLUSTER_UPDATE_PATH,
                lambda backend, request, params: api.ApiResponse(
                    200, self.cluster_update_payload(request.body)
                ),
                "control",
            ),
        )

    def app_factory(self, service: HypeRService, admission: Any, **kwargs: Any) -> "ShardServerApp":
        """``AsyncServingRunner(app_factory=shard_server.app_factory)`` hook."""
        return ShardServerApp(self, service, admission, **kwargs)


class ShardServerApp(AsyncApp):
    """The asyncio front door over the public table plus the node's own rows."""

    def __init__(
        self, shard_server: ShardServer, service: HypeRService, admission: Any, **kwargs: Any
    ) -> None:
        super().__init__(service, admission, **kwargs)
        self.routes = api.RouteTable((*api.V1_ENDPOINTS, *shard_server.endpoints()))
