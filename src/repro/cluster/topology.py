"""The JSON cluster-topology config shared by coordinator and shard nodes:
``NodeAddress`` and ``ClusterTopology``, their validation and
``shard_of_node``.

One file describes the whole cluster; every process is launched against the
same file plus its role (``repro serve --role coordinator|shard
--cluster-config cluster.json``)::

    {
      "n_shards": 3,
      "nodes": [
        {"host": "127.0.0.1", "port": 9001},
        {"host": "127.0.0.1", "port": 9002},
        {"host": "127.0.0.1", "port": 9003}
      ],
      "coordinator": {"host": "127.0.0.1", "port": 9000}
    }

``nodes[j]`` is where node ``j`` listens; its shard is ``j % n_shards``
(see :class:`~repro.cluster.placement.Placement`).  The ``coordinator``
entry is optional — it only tells ``--role coordinator`` where to bind, and
only it may name port 0 (an ephemeral port): every node must be dialable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..exceptions import HypeRError
from .placement import Placement

__all__ = ["ClusterTopology", "NodeAddress", "TopologyError"]


class TopologyError(HypeRError):
    """A malformed or inconsistent cluster-topology config."""


@dataclass(frozen=True)
class NodeAddress:
    """Where one process listens."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise TopologyError("node host must be non-empty")
        # port 0 binds an ephemeral port; ClusterTopology allows it only on
        # the coordinator entry, which no node dials
        if not 0 <= self.port <= 65535:
            raise TopologyError(f"node port {self.port} out of range")

    def to_json(self) -> dict[str, Any]:
        return {"host": self.host, "port": self.port}

    @classmethod
    def from_json(cls, payload: Any) -> "NodeAddress":
        if not isinstance(payload, dict):
            raise TopologyError(
                f"node address must be an object, got {type(payload).__name__}"
            )
        try:
            return cls(host=str(payload["host"]), port=int(payload["port"]))
        except KeyError as error:
            raise TopologyError(f"node address missing field {error}") from None
        except (TypeError, ValueError):
            raise TopologyError(f"malformed node address {payload!r}") from None


@dataclass(frozen=True)
class ClusterTopology:
    """The full cluster layout: shard count, node addresses, coordinator."""

    n_shards: int
    nodes: tuple[NodeAddress, ...]
    coordinator: NodeAddress | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        # Placement validates n_shards >= 1 and full shard cover
        try:
            self.placement
        except HypeRError as error:
            raise TopologyError(str(error)) from None
        seen: set[tuple[str, int]] = set()
        for node in self.nodes:
            if node.port == 0:
                raise TopologyError("node port 0: a node must be dialable as written")
            key = (node.host, node.port)
            if key in seen:
                raise TopologyError(f"duplicate node address {node.host}:{node.port}")
            seen.add(key)

    @property
    def placement(self) -> Placement:
        return Placement(n_shards=self.n_shards, n_nodes=len(self.nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def shard_of_node(self, node_index: int) -> int:
        return self.placement.shard_of_node(node_index)

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "n_shards": self.n_shards,
            "nodes": [node.to_json() for node in self.nodes],
        }
        if self.coordinator is not None:
            payload["coordinator"] = self.coordinator.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Any) -> "ClusterTopology":
        if not isinstance(payload, dict):
            raise TopologyError(
                f"cluster config must be an object, got {type(payload).__name__}"
            )
        try:
            n_shards = int(payload["n_shards"])
            raw_nodes = payload["nodes"]
        except KeyError as error:
            raise TopologyError(f"cluster config missing field {error}") from None
        except (TypeError, ValueError):
            raise TopologyError("n_shards must be an integer") from None
        if not isinstance(raw_nodes, list) or not raw_nodes:
            raise TopologyError("nodes must be a non-empty list of addresses")
        coordinator = payload.get("coordinator")
        return cls(
            n_shards=n_shards,
            nodes=tuple(NodeAddress.from_json(node) for node in raw_nodes),
            coordinator=(
                None if coordinator is None else NodeAddress.from_json(coordinator)
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClusterTopology":
        """Read and validate a topology file."""
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise TopologyError(f"cannot read cluster config {path}: {error}") from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise TopologyError(f"cluster config {path} is not valid JSON: {error}") from None
        return cls.from_json(payload)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")
