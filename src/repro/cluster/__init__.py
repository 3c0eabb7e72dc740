"""Multi-node cluster serving (``docs/cluster.md``): one coordinator front door
accepts the unchanged public v1 API and moves each query — what-if or how-to —
whole to one shard-server node over HTTP; every node holds the full snapshot
and answers on its own service, so cluster answers are the single service's,
bit for bit.  ``repro serve --role coordinator|shard --cluster-config
topology.json`` starts either role.
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
