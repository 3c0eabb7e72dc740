"""One shard node of the cluster: the existing front door plus ``/v1/partial``
and ``/v1/cluster/update`` — a full service, its retained generations pinned
as MVCC snapshots, and the two internal rows, mounted through an
``app_factory`` on :mod:`repro.aserve`.

A :class:`ShardServer` wraps a full :class:`~repro.service.session.HypeRService`
(every node holds the complete database snapshot) and keeps its last
``retained_generations`` generations pinned in that service's MVCC version
store (:meth:`~repro.service.session.HypeRService.retain` / ``release``), so
the node keeps answering at a generation its service has already left.  The
service is the node's only engine.

:class:`ShardServerApp` mounts the public endpoint table plus the node's two
internal rows (:meth:`ShardServer.endpoints`) on the asyncio front door:

* ``POST /v1/partial`` — one leg at a named generation, on the ``admitted``
  lane exactly like ``/v1/query`` (a leg competes with local public queries
  for the same executor).  ``kind="answers"`` moves the queries to the data:
  the texts of whole what-ifs and how-tos (``"exhaustive"`` rides the leg)
  are keyed (:func:`~repro.lang.parser.parse_keyed`) and answered by the
  node's service *at* the named generation ``g`` — the leg is an ordinary
  snapshot reader pinned at ``g``, and a text of a key the node has bound at
  ``g`` binds that plan, one fingerprint per key per snapshot — and one
  scalar answer, or error envelope, per query comes back.  When the node is
  already past ``g`` (mid-flip, ahead of the coordinator) the body says ``"retained": true``; a generation the
  node no longer pins answers ``409 stale_generation`` so the coordinator
  fails over.  ``kind="whatif"``, one row-scatter partial of one what-if on
  the node's shard slice, answered at the node's latest generation, has no
  caller left in ``src/`` (``perf/probes.py`` posts and times it; it leaves
  with ROADMAP 1(d)).
* ``POST /v1/cluster/update`` — the two-phase commit fan-out.  ``stage``
  builds the next generation's database off to the side (queries keep
  answering from the current one) from one float64 frame per column, whose
  values the coordinator checked: the node checks the frames (dtype, 1-D
  shape, byte count) and ``with_columns`` the relation, attribute and
  length — anything else is a 400 staging nothing.  ``flip`` commits it through
  the node's own MVCC service, so the node and the coordinator agree on
  generation numbers, and pins it.  On the ``control`` lane like
  ``/v1/update``: a commit must land on a saturated node, so it bypasses
  admission.

The previous generation stays pinned (like the in-process pool's
``pinned_fallbacks``), so a leg racing a cluster-wide flip still gets exact
answers for its generation from nodes that already flipped.
"""

from __future__ import annotations

import threading
from typing import Any

from ..api import endpoints as api
from ..api.endpoints import PayloadError
from ..api.schemas import API_VERSION, ErrorEnvelope, update_assignments
from ..causal.dag import CausalDAG
from ..core.config import EngineConfig
from ..core.queries import WhatIfQuery
from ..core.results import HowToResult
from ..exceptions import QuerySemanticsError
from ..obs import trace as obs_trace
from ..relational.database import Database
from ..service.session import HypeRService
from ..service.state import with_columns
from ..service.versions import Commit, Snapshot
from ..shard.local import what_if_partial
from ..shard.partition import Shard, partition_database
from ..aserve.app import AsyncApp
from . import wire

__all__ = ["PARTIAL_PATH", "CLUSTER_UPDATE_PATH", "ShardServer", "ShardServerApp"]

#: the internal scatter-gather endpoint (not part of the public v1 table)
PARTIAL_PATH = "/v1/partial"
#: the internal two-phase update fan-out endpoint
CLUSTER_UPDATE_PATH = "/v1/cluster/update"


def _float_frame(payload: Any, column: str) -> Any:
    """One staged column: a 1-D float64 frame (the coordinator checked the values)."""
    array = wire.decode_array(payload)
    if array.dtype != "float64" or array.ndim != 1:
        shape = list(array.shape)
        raise wire.WireError(f"column {column} must be 1-D float64, not {array.dtype}{shape}")
    return array


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
    """A shard node's state: a full-snapshot service and its retained pins.

    Parameters
    ----------
    database / causal_dag / config:
        Exactly as for :class:`HypeRService` — the node's full snapshot.
    shard_index / n_shards:
        Which slice of the deterministic partition a ``kind="whatif"``
        partial covers (``node_index % n_shards`` under the round-robin
        placement); nothing else reads them.
    retained_generations:
        How many generations stay pinned and answerable (>= 2 so legs racing
        a cluster flip can still complete at their generation).
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
        self._lock = threading.Lock()
        #: the retained generations' snapshots, oldest first, each pinned once
        self._pins: list[Snapshot] = [self.service.retain()]
        #: (generation, database) staged by phase one of a commit
        self._staged: tuple[int, Database] | None = None
        #: (generation, shard) of the lazily built kind="whatif" slice
        self._slice: tuple[int, Shard] | None = None

    def pinned_generations(self) -> list[int]:
        with self._lock:
            return [snapshot.generation for snapshot in self._pins]

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
        # kind="whatif": kept until ROADMAP 1(d), perf/probes.py posts it
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise PayloadError(400, "field 'query' must be a non-empty string")
        parsed = self.service.parse(query_text)
        if deadline is not None:
            deadline.check()
        if not isinstance(parsed, WhatIfQuery):
            raise PayloadError(400, "kind 'whatif' needs a what-if query")
        with self._lock:
            if generation != self.service.generation:
                raise _stale_generation(generation, [self.service.generation])
            if self._slice is None or self._slice[0] != generation:
                plan = partition_database(
                    self.service.database, self.service.causal_dag, self.n_shards
                )
                self._slice = (generation, plan[self.shard_index])
            shard = self._slice[1]
        with obs_trace.span("cluster.partial", kind=kind, shard=self.shard_index):
            partial = what_if_partial(self.service, shard, parsed)
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
        try:
            # the leg's own pin: ``generation`` stays live until its last answer
            snapshot = self.service.retain(generation)
        except LookupError:
            raise _stale_generation(generation, self.pinned_generations()) from None

        def checked(evaluate: Any) -> list[Any]:
            # the request's budget, checked before each plan group's work
            if deadline is not None:
                deadline.check()
            return evaluate()

        try:
            with obs_trace.span("cluster.partial", kind="answers", shard=self.shard_index):
                outcomes = self.service.answer(
                    texts, exhaustive=exhaustive, generation=generation, around_group=checked
                )
        finally:
            self.service.release(snapshot)
        answers = [
            wire.encode_how_to_answer(out) if isinstance(out, HowToResult)
            else wire.encode_what_if_answer(out)
            for out in outcomes
        ]
        body: dict[str, Any] = {
            "api_version": API_VERSION,
            "kind": "answers",
            "generation": generation,
            "answers": answers,
        }
        if self.service.generation > generation:
            body["retained"] = True  # this node flipped ahead of the coordinator
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
            # a malformed body (WireFormatError, WireError) is a 400 staging nothing
            self.stage(generation, update_assignments(body.get("assignments"), _float_frame))
            return {
                "api_version": API_VERSION,
                "phase": "stage",
                "generation": generation,
                "staged": True,
            }
        if phase == "flip":
            commit = self.flip(generation)
            return {
                "api_version": API_VERSION,
                "phase": "flip",
                "generation": commit.generation,
                "changed": sorted(commit),
            }
        raise PayloadError(400, f"unknown cluster-update phase {phase!r}")

    def stage(self, generation: int, assignments: dict[str, dict[str, Any]]) -> None:
        """Phase one: build and validate the next generation's database.

        It applies ``assignments`` to ``service.database`` exactly as
        :meth:`HypeRService.update_relation_columns` would; nothing is
        committed, and queries keep answering from the current generation.
        """
        with self._lock:
            if generation != self.service.generation + 1:
                raise _stale_generation(
                    generation, [snapshot.generation for snapshot in self._pins]
                )
            self._staged = (generation, with_columns(self.service.database, assignments))

    def flip(self, generation: int) -> Commit:
        """Phase two: commit the staged database, pin it, unpin the oldest.

        ``stage`` derived that database from ``service.database`` and the
        generation check below proves the service has not moved since, so
        unchanged relations keep their identity and ``update_database`` bumps
        and evicts exactly what re-applying the assignments would.
        """
        with self._lock:
            staged, self._staged = self._staged, None
            if staged is None or staged[0] != generation:
                staged_gen = None if staged is None else staged[0]
                raise api.ApiError(
                    409,
                    ErrorEnvelope(
                        "stale_generation",
                        f"no staged database for generation {generation} "
                        f"(staged: {staged_gen})",
                        {"requested": generation, "staged": staged_gen},
                    ),
                )
            if self.service.generation + 1 != generation:
                raise _stale_generation(
                    generation, [snapshot.generation for snapshot in self._pins]
                )
            commit = self.service.update_database(staged[1])
            self._pins.append(self.service.retain(commit.generation))
            while len(self._pins) > self.retained_generations:
                self.service.release(self._pins.pop(0))
            return commit

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
