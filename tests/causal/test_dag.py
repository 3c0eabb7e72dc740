"""Tests for attribute-level causal DAGs."""

import pytest

from repro.causal import CausalDAG, CausalEdge
from repro.exceptions import CausalModelError

from .oracles import is_collider, undirected_paths


@pytest.fixture
def chain_dag():
    """A -> B -> C with a confounder U -> A, U -> C."""
    dag = CausalDAG(nodes=["A", "B", "C", "U"])
    dag.add_edge(("A", "B"))
    dag.add_edge(("B", "C"))
    dag.add_edge(("U", "A"))
    dag.add_edge(("U", "C"))
    return dag


class TestStructure:
    def test_nodes_edges_membership(self, chain_dag):
        assert set(chain_dag.nodes) == {"A", "B", "C", "U"}
        assert len(chain_dag.edges) == 4
        assert "A" in chain_dag
        assert chain_dag.has_edge("A", "B")
        assert not chain_dag.has_edge("B", "A")

    def test_parents_children(self, chain_dag):
        assert chain_dag.parents("C") == ["B", "U"]
        assert chain_dag.children("U") == ["A", "C"]
        assert chain_dag.parents("U") == []

    def test_ancestors_descendants(self, chain_dag):
        assert chain_dag.ancestors("C") == {"A", "B", "U"}
        assert chain_dag.descendants("U") == {"A", "B", "C"}
        assert chain_dag.descendants("C") == set()

    def test_roots_and_topological_order(self, chain_dag):
        assert chain_dag.roots() == ["U"]
        order = chain_dag.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")
        assert order.index("U") < order.index("C")

    def test_topological_order_takes_the_smallest_ready_name(self):
        dag = CausalDAG(["Z", "B", "A", "Y"], [("Z", "A"), ("B", "Y"), ("Y", "A")])
        assert dag.topological_order() == ["B", "Y", "Z", "A"]

    def test_nodes_and_edges_keep_insertion_order(self):
        dag = CausalDAG(["C", "A"], [("C", "B"), ("A", "D"), ("C", "A")])
        assert dag.nodes == ["C", "A", "B", "D"]
        assert [(e.source, e.target) for e in dag.edges] == [("C", "B"), ("C", "A"), ("A", "D")]
        dag.add_edge(CausalEdge("C", "B", cross_tuple=True))  # re-added: same place, new edge
        assert [(e.source, e.target) for e in dag.edges][0] == ("C", "B")
        assert dag.edge("C", "B").cross_tuple
        assert [(e.source, e.target) for e in dag.copy().edges] == [
            (e.source, e.target) for e in dag.edges
        ]

    def test_unknown_node_raises(self, chain_dag):
        with pytest.raises(CausalModelError):
            chain_dag.parents("Z")

    def test_edge_lookup(self, chain_dag):
        edge = chain_dag.edge("A", "B")
        assert edge.source == "A" and not edge.cross_tuple
        with pytest.raises(CausalModelError):
            chain_dag.edge("C", "A")


class TestValidation:
    def test_cycle_rejected(self, chain_dag):
        with pytest.raises(CausalModelError, match="cycle"):
            chain_dag.add_edge(("C", "A"))
        # failed insert must not leave the edge behind
        assert not chain_dag.has_edge("C", "A")

    def test_self_loop_rejected(self):
        with pytest.raises(CausalModelError):
            CausalEdge("A", "A")

    def test_within_requires_cross_tuple(self):
        with pytest.raises(CausalModelError):
            CausalEdge("A", "B", cross_tuple=False, within="G")

    def test_empty_node_name(self):
        dag = CausalDAG()
        with pytest.raises(CausalModelError):
            dag.add_node("")


class TestSurgery:
    def test_copy_is_independent(self, chain_dag):
        clone = chain_dag.copy()
        clone.add_edge(("A", "C"))
        assert not chain_dag.has_edge("A", "C")

    def test_cross_tuple_edges_listed(self):
        dag = CausalDAG(nodes=["Price", "Rating"])
        dag.add_edge(CausalEdge("Price", "Rating", cross_tuple=True, within="Category"))
        cross = [edge for edge in dag.edges if edge.cross_tuple]
        assert len(cross) == 1
        assert cross[0].within == "Category"
        assert dag.edge("Price", "Rating") == cross[0]


class TestPaths:
    def test_undirected_paths(self, chain_dag):
        paths = [tuple(p) for p in undirected_paths(chain_dag, "A", "C")]
        assert ("A", "B", "C") in paths
        assert ("A", "U", "C") in paths

    def test_collider_detection(self):
        dag = CausalDAG(nodes=["A", "B", "C"])
        dag.add_edge(("A", "B"))
        dag.add_edge(("C", "B"))
        assert is_collider(dag, ["A", "B", "C"], 1)
        assert not is_collider(dag, ["A", "B", "C"], 0)
        chain = CausalDAG(nodes=["A", "B", "C"], edges=[("A", "B"), ("B", "C")])
        assert not is_collider(chain, ["A", "B", "C"], 1)
