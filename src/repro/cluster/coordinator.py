"""The cluster's front door: queries go where the data is, exactly — whole
queries of both kinds dealt to nodes by plan, health probing, failover and
two-phase commits, behind the ``ServiceBackend`` protocol the HTTP door
serves unchanged.

:class:`ClusterCoordinator` implements the
:class:`~repro.service.backend.ServiceBackend` protocol next to
:class:`~repro.service.session.HypeRService` (and shares its
:class:`~repro.service.backend.ServingCounters`), so the HTTP door
(:mod:`repro.aserve`) mounts it unchanged and the public v1 API is identical
to a single-node deployment.

Every node holds the full snapshot and a whole ``HypeRService``, so a query —
**what-if or how-to** (Definition 7: a how-to's candidates are what-ifs) — is
*query-scattered*: the coordinator pins its generation ``g``, deals the
queries of a call over the healthy nodes by plan
(:meth:`PlanDealer.deal <repro.service.fingerprint.PlanDealer.deal>`, the
shard pool's rule: a plan's queries go to the node that has it fitted) — at
most one sub-batch per node, all legs gathered in one hand-off to the private
event loop — and each node answers its share as one ``POST /v1/partial`` leg
of ``kind="answers"``: one leg and a scalar answer per query (a how-to's
carries the updates it chose), no partial arrays, no merge, nothing solved
here.  Any node can answer any query, so a transport failure or 429 re-deals
the sub-batch to the next node along the ring.

One flip-window rule: a leg names ``g`` and the node's service answers *at*
``g`` — a snapshot reader pinned at ``g``, whether ``g`` is its latest
generation or (the node is mid-flip, ahead of the coordinator) one it still
pins, which the leg's body reports and ``fallbacks`` counts.  Only a node
that no longer pins ``g`` answers ``409 stale_generation``, and the leg moves
on to the next node.  Every answer is therefore computed at exactly one
coordinator generation.

Health: ``failure_threshold`` consecutive failures mark a node unhealthy
(skipped by first choice); a background probe re-admits it only once its
``/health`` reports the coordinator's current generation — a node that
missed an update fan-out can never serve stale answers.

Updates run two-phase under the commit lock: ``stage`` the next generation's
database on every healthy node (queries keep flowing against the current
generation; the columns are checked here once and sent as one float64 frame
each), then ``flip`` every node that staged; nodes keep the previous
generation pinned so legs racing the flip still finish exactly (the cluster
analogue of the MVCC ``pinned_fallbacks``).

Server-side deadlines decrement across hops: the coordinator advertises
``accepts_deadline`` and forwards each request's remaining budget as the
``deadline_ms`` of its downstream calls.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from operator import attrgetter
from typing import Any, Sequence

from ..api import endpoints as api
from ..api.aclient import AsyncHypeRClient
from ..api.calls import (
    ApiStatusError,
    DeadlineExceeded,
    OverloadedError,
    TransportError,
)
from ..api.schemas import API_VERSION, number_column, update_assignments
from ..core.config import EngineConfig
from ..core.queries import HowToQuery, WhatIfQuery
from ..exceptions import HypeRError
from ..lang.unparse import unparse
from ..obs import trace as obs_trace
from ..obs.metrics import Figure
from ..service.backend import ServingCounters, default_max_workers, raise_first_error
from ..service.fingerprint import PlanDealer, fingerprint_query
from ..service.versions import Commit
from . import wire
from .shardserver import CLUSTER_UPDATE_PATH, PARTIAL_PATH
from .topology import ClusterTopology

__all__ = ["ClusterCoordinator", "ClusterError"]

# seconds between the background /health probes of unhealthy nodes
_PROBE_INTERVAL = 1.0

Query = WhatIfQuery | HowToQuery


async def _gathered(coros: Any) -> list[Any]:
    """``asyncio.gather`` as a coroutine a calling thread can hand to the loop."""
    return list(await asyncio.gather(*coros))


class ClusterError(HypeRError):
    """A cluster-level serving failure (no node could answer a leg)."""


class _NodeState:
    """Live health bookkeeping of one topology node."""

    __slots__ = ("index", "shard", "address", "client", "failures", "healthy")

    def __init__(self, index: int, shard: int, address, client: AsyncHypeRClient):
        self.index = index
        self.shard = shard
        self.address = address
        self.client = client
        self.failures = 0
        self.healthy = True


def _node_up(coordinator: "ClusterCoordinator") -> dict[str, float]:
    return {str(node.index): float(node.healthy) for node in coordinator._nodes}


class ClusterCoordinator(ServingCounters):
    """Scatter-gather front door over a :class:`ClusterTopology`.

    Parameters
    ----------
    topology:
        Node addresses and shard count (see :mod:`repro.cluster.topology`).
    config:
        The :class:`EngineConfig` shared with the shard nodes; the
        coordinator reads it only to fingerprint plans for dealing.
    max_workers:
        The front door's admission capacity (``None``: CPU count capped at 8).
    timeout:
        Per-node socket/IO timeout, seconds.
    failure_threshold:
        Consecutive per-node failures before the node is marked unhealthy.

    A background task probes each unhealthy node's ``/health`` every
    :data:`_PROBE_INTERVAL` seconds; a node client retries a failed call
    once.
    """

    #: front doors forward each request's remaining deadline budget into
    #: execute(..., deadline=) — it decrements across coordinator→shard hops
    accepts_deadline = True
    execution = "cluster"

    #: ``stats()``: the serving head, then the coordinator counters and nodes
    FIGURES = ServingCounters.FIGURES + (
        Figure("cluster.n_shards", attrgetter("n_shards")),
        Figure("cluster.n_nodes", lambda coordinator: len(coordinator._nodes),
               "hyper_cluster_nodes", "Nodes in the topology"),
        Figure("cluster.healthy_nodes",
               lambda coordinator: sum(1 for node in coordinator._nodes if node.healthy),
               "hyper_cluster_healthy_nodes", "Nodes currently considered healthy"),
        Figure(None, _node_up, "hyper_cluster_node_up", "Per-node health (1 healthy, 0 unhealthy)",
               label="node"),
        Figure("cluster.scatters", lambda coordinator: int(coordinator._m_scatters.value)),
        Figure("cluster.failovers", lambda coordinator: int(coordinator._m_failovers.value)),
        Figure("cluster.fallbacks", lambda coordinator: int(coordinator._m_fallbacks.value)),
        Figure("cluster.updates", lambda coordinator: int(coordinator._m_updates.value)),
        Figure("cluster.nodes", lambda coordinator: coordinator._node_rows()),
    )

    def __init__(
        self,
        topology: ClusterTopology,
        config: EngineConfig | None = None,
        *,
        max_workers: int | None = None,
        timeout: float = 30.0,
        failure_threshold: int = 3,
        slow_query_seconds: float = 0.1,
        slow_log_size: int = 64,
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else EngineConfig()
        self.n_shards = topology.n_shards
        self.max_workers = max_workers or default_max_workers()
        self.timeout = timeout
        self.failure_threshold = max(1, failure_threshold)
        self._generation = 0
        self._dealer = PlanDealer()
        # serializes two-phase update fan-outs (and generation bumps)
        self._commit_lock = threading.RLock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._probe_future: Future | None = None
        self._started = False
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._nodes = [
            _NodeState(
                index,
                topology.shard_of_node(index),
                address,
                AsyncHypeRClient(
                    address.host,
                    address.port,
                    timeout=timeout,
                    max_retries=1,
                    # a base64 frame costs more to gzip than it saves on a LAN
                    gzip_min_bytes=None,
                ),
            )
            for index, address in enumerate(topology.nodes)
        ]
        super().__init__(
            slow_query_seconds=slow_query_seconds, slow_log_size=slow_log_size
        )
        m = self.metrics
        self._m_scatters = m.counter(
            "hyper_cluster_scatters_total", "Node legs issued (answers, prepares)"
        )
        self._m_failovers = m.counter(
            "hyper_cluster_failovers_total",
            "Node legs retried on another node after a node failure",
        )
        self._m_fallbacks = m.counter(
            "hyper_cluster_fallbacks_total",
            "Queries a node answered from a retained generation, being ahead of the pinned one",
        )
        self._m_node_failures = m.counter(
            "hyper_cluster_node_failures_total",
            "Per-node call failures observed by the coordinator",
            labelnames=("node",),
        )
        self._m_updates = m.counter(
            "hyper_cluster_updates_total", "Two-phase update fan-outs committed"
        )

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Start the private event-loop thread and the health-probe task."""
        with self._lifecycle_lock:
            if self._started:
                return
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever, name="hyper-cluster-loop", daemon=True
            )
            thread.start()
            self._loop = loop
            self._thread = thread
            self._started = True
            self._probe_future = asyncio.run_coroutine_threadsafe(
                self._probe_forever(), loop
            )

    def start_pool(self) -> None:
        """Front-door lifecycle hook (the runner calls it): alias of start()."""
        self.start()

    def close(self) -> None:
        """Stop probing, close every node client, and join the loop thread."""
        with self._lifecycle_lock:
            if not self._started or self._closed:
                self._closed = True
                return
            self._closed = True
            if self._probe_future is not None:
                self._probe_future.cancel()
            loop = self._loop
            assert loop is not None
            try:
                asyncio.run_coroutine_threadsafe(
                    self._close_clients(), loop
                ).result(timeout=10)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)
            loop.close()
            self._loop = None
            self._thread = None

    async def _close_clients(self) -> None:
        for node in self._nodes:
            await node.client.close()

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _run(self, coro: Any) -> Any:
        """Run a coroutine on the private loop from a calling thread."""
        if not self._started:
            self.start()
        if self._closed or self._loop is None:
            coro.close()  # never scheduled: do not leave it to warn at collection
            raise ClusterError("coordinator is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- health ------------------------------------------------------------------------

    def _record_failure(self, node: _NodeState) -> None:
        node.failures += 1
        self._m_node_failures.labels(node=str(node.index)).inc()
        if node.failures >= self.failure_threshold:
            node.healthy = False

    def _record_success(self, node: _NodeState) -> None:
        node.failures = 0
        node.healthy = True

    async def _probe_forever(self) -> None:
        """Re-admit unhealthy nodes whose /health matches our generation."""
        while not self._closed:
            await asyncio.sleep(_PROBE_INTERVAL)
            for node in self._nodes:
                if node.healthy or self._closed:
                    continue
                try:
                    body = await node.client.health(
                        deadline=min(self.timeout, 5.0)
                    )
                except Exception:  # noqa: BLE001 - stays unhealthy
                    continue
                # generation must match: a node that missed an update fan-out
                # would serve stale partials if re-admitted
                if int(body.get("generation", -1)) == self._generation:
                    self._record_success(node)

    # -- scatter-gather ----------------------------------------------------------------

    @staticmethod
    def _client_deadline(deadline: "api.RequestDeadline | None") -> float | None:
        if deadline is None:
            return None
        return max(deadline.remaining_ms() / 1000.0, 1e-3)

    async def _ask(
        self,
        nodes: Sequence[_NodeState],
        path: str,
        payload: dict[str, Any],
        deadline: "api.RequestDeadline | None",
    ) -> dict[str, Any]:
        """``POST payload`` to the first of ``nodes`` that answers it.

        A transport failure or 429 is that node's failure and the call moves
        on to the next node (a failover); so does a ``409 stale_generation``
        — another node may still retain the generation.  Any other error
        status is the node's deterministic answer (every node would give the
        same) and is re-raised verbatim.
        """
        last_error: Exception | None = None
        for attempt, node in enumerate(nodes):
            if deadline is not None:
                # whole milliseconds, rounded down: a hop never hands on more
                # budget than is left, and less than one cannot cover a hop
                remaining = int(deadline.remaining_ms())
                if remaining < 1:
                    raise api.deadline_error(deadline.deadline_ms)
                payload["deadline_ms"] = remaining
            if attempt:
                self._m_failovers.inc()
            self._m_scatters.inc()
            try:
                body = await node.client.post_json(
                    path, payload, deadline=self._client_deadline(deadline)
                )
            except DeadlineExceeded:
                # ours or the node's 504: without a budget neither can happen
                if deadline is None:
                    raise
                raise api.deadline_error(deadline.deadline_ms) from None
            except (TransportError, OverloadedError) as error:
                self._record_failure(node)
                last_error = error
                continue
            except ApiStatusError as error:
                if error.code == "stale_generation":
                    self._record_failure(node)
                    last_error = error
                    continue
                raise api.ApiError(error.status, error.envelope) from None
            self._record_success(node)
            return body
        raise ClusterError(
            f"none of nodes {[node.index for node in nodes]} could answer "
            f"{path}: {last_error}"
        )

    async def _deal(
        self,
        items: Sequence[tuple[Query, str]],
        generation: int,
        deadline: "api.RequestDeadline | None",
        exhaustive: bool,
    ) -> list[Any]:
        """Query-scatter: deal ``items`` to the healthy nodes by plan, one leg per node.

        Per item the answering node's result, or the error to raise for it.
        """
        ring = [node.index for node in self._nodes if node.healthy]
        ring = ring or [node.index for node in self._nodes]
        spare = [node for node in self._nodes if node.index not in ring]
        dealt = self._dealer.deal(
            [fingerprint_query(parsed, self.config) for parsed, _text in items], ring
        )
        legs = {
            home: [j for j, node in enumerate(dealt) if node == home]
            for home in sorted(set(dealt))
        }

        async def leg(home: int) -> list[Any]:
            positions = legs[home]
            payload: dict[str, Any] = {
                "api_version": API_VERSION,
                "kind": "answers",
                "queries": [items[j][1] for j in positions],
                "generation": generation,
            }
            if exhaustive:
                payload["exhaustive"] = True
            # a leg fails over along the rest of the ring, unhealthy nodes last
            at = ring.index(home)
            order = [self._nodes[index] for index in ring[at:] + ring[:at]]
            try:
                body = await self._ask(order + spare, PARTIAL_PATH, payload, deadline)
                if len(body["answers"]) != len(positions):
                    raise ClusterError(f"malformed answers leg: {body!r}")
                if body.get("retained"):  # the node was ahead of ``generation``
                    self._m_fallbacks.inc(len(positions))
                return [
                    (
                        wire.decode_how_to_answer
                        if isinstance(items[j][0], HowToQuery)
                        else wire.decode_what_if_answer
                    )(answer)
                    for j, answer in zip(positions, body["answers"])
                ]
            except Exception as error:  # noqa: BLE001 - reported per query
                return [error] * len(positions)

        outcomes: list[Any] = [None] * len(items)
        for positions, answers in zip(legs.values(), await _gathered(map(leg, legs))):
            for j, answer in zip(positions, answers):
                outcomes[j] = answer
        return outcomes

    def _answers(
        self,
        items: Sequence[tuple[Query, str]],
        deadline: "api.RequestDeadline | None",
        exhaustive: bool = False,
    ) -> list[Any]:
        """Answer parsed queries at one pinned generation; errors in place."""
        started = time.perf_counter()
        with obs_trace.span("cluster.scatter", kind="answers", queries=len(items)):
            outcomes = self._run(self._deal(items, self._generation, deadline, exhaustive))
        for (parsed, text), outcome in zip(items, outcomes):
            if not isinstance(outcome, Exception):
                outcome.runtime_seconds = time.perf_counter() - started
                kind = "whatif" if isinstance(parsed, WhatIfQuery) else "howto"
                self._record_completion(parsed, text, outcome.runtime_seconds, lambda: (text, kind))
        return outcomes

    # -- the service surface -----------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    def _parsed(self, query: Any) -> tuple[Query, str]:
        """A query as its object and the text the nodes are sent."""
        parsed = self._as_query(query)
        return parsed, query if isinstance(query, str) else unparse(parsed)

    def _capacity_hint(self) -> int:
        """One concurrent scatter per healthy node (never below one)."""
        return max(sum(1 for node in self._nodes if node.healthy), 1)

    def prepare(self, queries: Any) -> None:
        """Warm every node for ``queries`` (strict: a bad query raises).

        Whichever node a query is dealt to answers it, so every text, what-if
        or how-to, goes to every healthy node's own ``POST /v1/prepare``.
        """
        entries = queries if isinstance(queries, (list, tuple)) else [queries]
        texts = [self._parsed(entry)[1] for entry in entries]
        if texts:
            payload = {"api_version": API_VERSION, "queries": texts}
            self._run(
                _gathered(
                    self._ask([node], "/v1/prepare", payload, None)
                    for node in self._nodes
                    if node.healthy
                )
            )

    def execute(
        self,
        query: Any,
        *,
        exhaustive: bool = False,
        trace: "obs_trace.TraceContext | None" = None,
        deadline: "api.RequestDeadline | None" = None,
    ):
        """Answer one query; bitwise equal to the unsharded service.

        One answers leg to the node the query's plan is homed on, naming the
        generation pinned at the start of the call.
        """
        parsed, text = self._parsed(query)
        self._m_queries.inc()
        with obs_trace.activate(trace), self._track("query"):
            (outcome,) = raise_first_error(self._answers([(parsed, text)], deadline, exhaustive))
            return outcome

    def execute_many(
        self,
        queries: Sequence[Any],
        *,
        max_workers: int | None = None,
        return_errors: bool = False,
    ) -> list[Any]:
        """Answer a batch in input order: what-ifs and how-tos alike dealt
        over the nodes in one hand-off, at most one leg per node.

        ``max_workers`` is the protocol's; the legs overlap on the event loop.
        """
        self._m_batches.inc()
        outcomes: list[Any] = [None] * len(queries)
        items: dict[int, tuple[Query, str]] = {}
        for index, entry in enumerate(queries):
            try:
                items[index] = self._parsed(entry)
            except Exception as error:  # noqa: BLE001 - reported per query
                outcomes[index] = error
        if items:
            self._m_queries.inc(len(items))
            with self._track("query", units=len(items)):
                answered = self._answers(list(items.values()), None)
            for index, outcome in zip(items, answered):
                outcomes[index] = outcome
        return outcomes if return_errors else raise_first_error(outcomes)

    # -- updates (two-phase fan-out) ---------------------------------------------------

    def update_relation_columns(self, assignments: dict[str, dict[str, Any]]) -> Commit:
        """Commit column overwrites cluster-wide as one generation.

        Phase one stages the next generation's database on every healthy
        node (a deterministic rejection aborts the commit — nothing flipped,
        nothing changed); phase two flips every node that staged.  Any node
        answers any query at any generation it still pins, so the commit
        needs no shard cover: it fails only when no node stages or no node
        flips.  A node failing either phase is marked unhealthy, and since
        re-admission requires matching the coordinator's generation, a node
        that missed the flip stays out until an operator restarts it at the
        current data.  The answer carries the generation this commit
        installed, taken under the commit lock.
        """
        # checked once, by /v1/update's rule: a node gets one float64 frame per column
        frames = update_assignments(
            assignments, lambda values, name: wire.encode_array(number_column(list(values), name))
        )
        with self._commit_lock:
            generation = self._generation + 1
            changed = self._run(self._commit(generation, frames))
            self._generation = generation
            self._m_updates.inc()
            return Commit(changed, generation)

    async def _commit(
        self, generation: int, assignments: dict[str, dict[str, dict[str, Any]]]
    ) -> list[str]:
        targets = [node for node in self._nodes if node.healthy]
        stage_payload = {
            "api_version": API_VERSION,
            "phase": "stage",
            "generation": generation,
            "assignments": assignments,
        }
        results = await asyncio.gather(
            *(node.client.post_json(CLUSTER_UPDATE_PATH, stage_payload) for node in targets),
            return_exceptions=True,
        )
        staged: list[_NodeState] = []
        stage_error: BaseException | None = None
        rejected: ApiStatusError | None = None
        for node, outcome in zip(targets, results):
            if isinstance(outcome, ApiStatusError) and outcome.code != "stale_generation":
                # deterministic validation rejection (unknown relation, column
                # length mismatch): every node answers the same, the node is
                # healthy, and the commit aborts with nothing flipped
                rejected = outcome
            elif isinstance(outcome, BaseException):
                self._record_failure(node)
                node.healthy = False
                stage_error = outcome
            else:
                staged.append(node)
        if rejected is not None:
            raise api.ApiError(rejected.status, rejected.envelope)
        if not staged:
            # abort before any flip: nodes drop their staged database the
            # next time a stage or flip arrives with a different generation
            raise ClusterError(
                f"update aborted: no node staged it ({stage_error})"
            ) from (stage_error if isinstance(stage_error, Exception) else None)
        flip_payload = {
            "api_version": API_VERSION,
            "phase": "flip",
            "generation": generation,
        }
        flip_results = await asyncio.gather(
            *(node.client.post_json(CLUSTER_UPDATE_PATH, flip_payload) for node in staged),
            return_exceptions=True,
        )
        changed: list[str] | None = None  # stays None until a node flips
        flip_error: BaseException | None = None
        for node, outcome in zip(staged, flip_results):
            if isinstance(outcome, BaseException):
                self._record_failure(node)
                node.healthy = False
                flip_error = outcome
            else:
                changed = [str(name) for name in outcome.get("changed", [])]
        if changed is None:
            raise ClusterError(
                f"update failed: no node flipped it ({flip_error})"
            ) from (flip_error if isinstance(flip_error, Exception) else None)
        return changed

    # -- instrumentation ---------------------------------------------------------------

    def _node_rows(self) -> list[dict[str, Any]]:
        """Each node's row of ``stats()["cluster"]``: a healthy node's own generation,
        query count and uptime join it, best effort, while the loop runs."""

        async def fetch(node: _NodeState) -> dict[str, Any]:
            if not node.healthy:
                return {}
            try:
                body = await node.client.get_json("/v1/stats", deadline=min(self.timeout, 2.0))
            except Exception as error:  # noqa: BLE001 - best effort
                return {"stats_error": str(error)}
            return {key: body.get(key) for key in ("generation", "n_queries", "uptime_seconds")}

        async def collect() -> list[dict[str, Any]]:
            return await asyncio.gather(*(fetch(node) for node in self._nodes))

        fetched: list[dict[str, Any]] = [{} for _ in self._nodes]
        if self._started and not self._closed:
            try:
                fetched = self._run(collect())
            except Exception:  # noqa: BLE001 - stats never fail the endpoint
                pass
        return [
            {
                "index": node.index,
                "shard": node.shard,
                "host": node.address.host,
                "port": node.address.port,
                "healthy": node.healthy,
                "failures": node.failures,
                **own,
            }
            for node, own in zip(self._nodes, fetched)
        ]
