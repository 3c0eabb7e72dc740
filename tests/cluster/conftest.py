"""Fixtures and the in-process cluster harness for the cluster test suite.

``make_cluster`` boots N real shard-server nodes (each a full asyncio front
door with the internal ``/v1/partial`` route mounted) on ephemeral ports,
wires a :class:`ClusterTopology` from the bound addresses, and yields a
started :class:`ClusterCoordinator` over them — everything in one process,
over real sockets, torn down afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from repro import EngineConfig
from repro.aserve import BackgroundAsyncServer
from repro.cluster import ClusterCoordinator, ClusterTopology, NodeAddress
from repro.cluster.shardserver import ShardServer
from repro.datasets import make_german_syn


@dataclass
class Cluster:
    coordinator: ClusterCoordinator
    shards: list[ShardServer]
    servers: list[BackgroundAsyncServer]
    topology: ClusterTopology
    stopped: set[int] = field(default_factory=set)

    def spy_on_legs(self) -> list[tuple[int, dict, object]]:
        """From now on, record ``(node, body, deadline)`` of every ``/v1/partial`` leg."""
        legs: list[tuple[int, dict, object]] = []
        for index, shard in enumerate(self.shards):

            def spy(body, *, deadline=None, _original=shard.partial_payload, _index=index):
                legs.append((_index, dict(body), deadline))
                return _original(body, deadline=deadline)

            shard.partial_payload = spy
        return legs

    def stop_node(self, index: int) -> None:
        """Kill one shard-server node (its port stops accepting)."""
        if index not in self.stopped:
            self.stopped.add(index)
            self.servers[index].stop()


@contextmanager
def make_cluster(
    database,
    causal_dag,
    config: EngineConfig,
    *,
    n_shards: int = 3,
    n_nodes: int | None = None,
    retained_generations: int = 2,
    **coordinator_kwargs,
):
    n_nodes = n_nodes or n_shards
    shards = [
        ShardServer(
            database,
            causal_dag,
            config,
            shard_index=index % n_shards,
            n_shards=n_shards,
            retained_generations=retained_generations,
        )
        for index in range(n_nodes)
    ]
    servers: list[BackgroundAsyncServer] = []
    coordinator = None
    cluster = None
    try:
        for shard in shards:
            servers.append(
                BackgroundAsyncServer(
                    shard.service,
                    app_factory=shard.app_factory,
                    max_inflight=8,
                    queue_depth=64,
                ).start()
            )
        topology = ClusterTopology(
            n_shards=n_shards,
            nodes=tuple(NodeAddress(*server.address) for server in servers),
        )
        coordinator = ClusterCoordinator(topology, config, **coordinator_kwargs)
        coordinator.start()
        cluster = Cluster(coordinator, shards, servers, topology)
        yield cluster
    finally:
        if coordinator is not None:
            coordinator.close()
        stopped = cluster.stopped if cluster is not None else set()
        for index, server in enumerate(servers):
            if index not in stopped:
                try:
                    server.stop()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=7)


@pytest.fixture(scope="module")
def config() -> EngineConfig:
    return EngineConfig(regressor="linear")
