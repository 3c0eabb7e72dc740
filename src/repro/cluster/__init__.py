"""Multi-node cluster serving: coordinator + shard-server topology.

One :class:`~repro.cluster.coordinator.ClusterCoordinator` front door accepts
the unchanged public v1 API and moves each query — what-if or how-to — whole to
one :class:`~repro.cluster.shardserver.ShardServer` node over HTTP; every node
holds the full snapshot and answers on its own service, so cluster answers
are the single unsharded service's, bit for bit.

* :mod:`repro.cluster.topology` — the JSON cluster config (node addresses,
  shard count) both roles load via ``repro serve --cluster-config``;
* :mod:`repro.cluster.placement` — deterministic shard→node replica sets
  (block→shard placement itself comes from the shared
  :func:`~repro.shard.partition.partition_database`);
* :mod:`repro.cluster.wire` — bit-exact JSON encodings of the scalar answers
  crossing the ``/v1/partial`` internal endpoint;
* :mod:`repro.cluster.shardserver` — a shard node: the existing asyncio
  front door plus ``/v1/partial`` and the two-phase ``/v1/cluster/update``;
* :mod:`repro.cluster.coordinator` — the front door: plan-affine dealing of
  answers legs, failover along the ring, node health tracking and the update
  fan-out.
"""

from .coordinator import ClusterCoordinator, ClusterError
from .placement import Placement, PlacementError
from .shardserver import ShardServer, ShardServerApp
from .topology import ClusterTopology, NodeAddress, TopologyError
from .wire import WireError

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterTopology",
    "NodeAddress",
    "Placement",
    "PlacementError",
    "ShardServer",
    "ShardServerApp",
    "TopologyError",
    "WireError",
]
