"""Placement determinism and topology JSON round-trips."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster import (
    ClusterTopology,
    NodeAddress,
    Placement,
    PlacementError,
    TopologyError,
)


class TestPlacement:
    def test_replica_sets_partition_the_nodes(self):
        placement = Placement(n_shards=3, n_nodes=7)
        replicas = {shard: [] for shard in range(3)}
        for node in range(7):
            replicas[placement.shard_of_node(node)].append(node)
        assert all(replicas.values())
        assert sorted(n for nodes in replicas.values() for n in nodes) == list(range(7))

    @pytest.mark.parametrize("n_shards,n_nodes,least", [(3, 6, 2), (3, 7, 2), (2, 2, 1)])
    def test_replication_factor(self, n_shards, n_nodes, least):
        placement = Placement(n_shards=n_shards, n_nodes=n_nodes)
        per_shard = Counter(placement.shard_of_node(node) for node in range(n_nodes))
        assert min(per_shard.values()) == least
        assert max(per_shard.values()) - least <= 1

    def test_deterministic(self):
        a, b = Placement(3, 9), Placement(3, 9)
        assert [a.shard_of_node(n) for n in range(9)] == [b.shard_of_node(n) for n in range(9)]

    @pytest.mark.parametrize("n_shards,n_nodes", [(0, 1), (3, 2), (-1, 4)])
    def test_invalid_shapes_raise(self, n_shards, n_nodes):
        with pytest.raises(PlacementError):
            Placement(n_shards=n_shards, n_nodes=n_nodes)


class TestTopology:
    def make(self) -> ClusterTopology:
        return ClusterTopology(
            n_shards=2,
            nodes=(
                NodeAddress("127.0.0.1", 9001),
                NodeAddress("127.0.0.1", 9002),
                NodeAddress("127.0.0.1", 9003),
            ),
            coordinator=NodeAddress("127.0.0.1", 9000),
        )

    def test_json_round_trip(self):
        topology = self.make()
        assert ClusterTopology.from_json(topology.to_json()) == topology

    def test_load_dump(self, tmp_path):
        topology = self.make()
        path = tmp_path / "topology.json"
        topology.dump(path)
        assert ClusterTopology.load(path) == topology

    def test_load_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TopologyError):
            ClusterTopology.load(path)

    def test_shard_of_node_follows_placement(self):
        topology = self.make()
        assert [topology.shard_of_node(i) for i in range(3)] == [0, 1, 0]

    def test_duplicate_addresses_rejected(self):
        with pytest.raises(TopologyError):
            ClusterTopology(
                n_shards=2,
                nodes=(
                    NodeAddress("127.0.0.1", 9001),
                    NodeAddress("127.0.0.1", 9001),
                ),
            )

    def test_fewer_nodes_than_shards_rejected(self):
        with pytest.raises((TopologyError, PlacementError)):
            ClusterTopology(n_shards=3, nodes=(NodeAddress("127.0.0.1", 9001),))

    @pytest.mark.parametrize("port", [0, -4, 65536])
    def test_bad_port_rejected(self, port):
        with pytest.raises(TopologyError):
            ClusterTopology(n_shards=1, nodes=(NodeAddress("127.0.0.1", port),))

    def test_a_coordinator_may_bind_an_ephemeral_port(self):
        payload = {"n_shards": 1, "nodes": [NODE], "coordinator": {"host": "127.0.0.1", "port": 0}}
        topology = ClusterTopology.from_json(payload)
        assert topology.coordinator == NodeAddress("127.0.0.1", 0)
        assert topology.to_json() == payload

    def test_a_node_may_not_take_port_zero(self):
        payload = {"n_shards": 1, "nodes": [NODE, {"host": "127.0.0.1", "port": 0}]}
        with pytest.raises(TopologyError, match="node port 0: a node must be dialable"):
            ClusterTopology.from_json(payload)


NODE = {"host": "127.0.0.1", "port": 9001}


@pytest.mark.parametrize(
    "payload, message",
    [
        ([NODE], "cluster config must be an object, got list"),
        ({"nodes": [NODE]}, "cluster config missing field 'n_shards'"),
        ({"n_shards": "two", "nodes": [NODE]}, "n_shards must be an integer"),
        ({"n_shards": 1, "nodes": []}, "nodes must be a non-empty list of addresses"),
        ({"n_shards": 1, "nodes": ["127.0.0.1:9001"]}, "node address must be an object, got str"),
        ({"n_shards": 1, "nodes": [{"host": "127.0.0.1"}]}, "node address missing field 'port'"),
        ({"n_shards": 1, "nodes": [{"host": "h", "port": "x"}]}, "malformed node address"),
        ({"n_shards": 1, "nodes": [{"host": "", "port": 9001}]}, "node host must be non-empty"),
    ],
)
def test_a_malformed_config_names_what_is_wrong(payload, message):
    with pytest.raises(TopologyError, match=message):
        ClusterTopology.from_json(payload)


def test_a_missing_config_file_names_the_path(tmp_path):
    with pytest.raises(TopologyError, match="cannot read cluster config .*absent.json"):
        ClusterTopology.load(tmp_path / "absent.json")


def test_a_node_list_becomes_a_tuple_and_its_indices_are_bounded():
    topology = ClusterTopology(n_shards=1, nodes=[NodeAddress(**NODE)])
    assert topology.nodes == (NodeAddress(**NODE),) and topology.n_nodes == 1
    with pytest.raises(PlacementError, match="node index 1 out of range for 1 node"):
        topology.shard_of_node(1)
