"""Deterministic shard → node placement with N-way replica sets.

Block → shard placement is *not* decided here: every node derives it from the
shared :func:`~repro.shard.partition.partition_database` (whose
``assign_blocks_to_shards`` is deterministic in the database and shard
count), so all replicas of a shard materialise the identical row subset
without any coordination.

What this module decides is which *nodes* serve which shard: node ``j``
serves shard ``j % n_shards``, so the replica set of shard ``i`` is every
node index congruent to ``i``.  With ``n_nodes = k * n_shards`` each shard
has exactly ``k`` interchangeable replicas; any node count ``>= n_shards``
covers every shard.  The mapping is a pure function of ``(n_shards,
n_nodes)`` — coordinator and nodes agree on it from the topology file alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import HypeRError

__all__ = ["Placement", "PlacementError"]


class PlacementError(HypeRError):
    """An invalid shard/node layout."""


@dataclass(frozen=True)
class Placement:
    """The round-robin shard → node assignment for one cluster layout."""

    n_shards: int
    n_nodes: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise PlacementError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_nodes < self.n_shards:
            raise PlacementError(
                f"{self.n_nodes} node(s) cannot cover {self.n_shards} shard(s); "
                "every shard needs at least one node"
            )

    def shard_of_node(self, node_index: int) -> int:
        """The shard whose rows node ``node_index`` materialises."""
        if not 0 <= node_index < self.n_nodes:
            raise PlacementError(
                f"node index {node_index} out of range for {self.n_nodes} node(s)"
            )
        return node_index % self.n_shards
