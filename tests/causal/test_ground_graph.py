"""Tests for grounding the causal DAG over a database instance (Figure 3)."""

import pytest

from repro.causal import CausalDAG, CausalEdge
from repro.exceptions import CausalModelError

from .ground_graph import GroundCausalGraph, GroundVariable


class TestGrounding:
    def test_node_count(self, figure1_database, figure2_dag):
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        # 5 product attributes x 5 products + 2 review attributes x 6 reviews
        assert len(ground.nodes) == 5 * 5 + 2 * 6

    def test_within_tuple_edges(self, figure1_database, figure2_dag):
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        src = GroundVariable("Product", (1,), "Quality")
        dst = GroundVariable("Product", (1,), "Price")
        assert ground.has_edge(src, dst)

    def test_cross_relation_edges_follow_foreign_key(self, figure1_database, figure2_dag):
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        # Quality of product 2 affects the ratings of ITS reviews (2,2) and (2,3) only.
        quality_p2 = GroundVariable("Product", (2,), "Quality")
        assert ground.has_edge(quality_p2, GroundVariable("Review", (2, 2), "Rating"))
        assert ground.has_edge(quality_p2, GroundVariable("Review", (2, 3), "Rating"))
        assert not ground.has_edge(quality_p2, GroundVariable("Review", (1, 1), "Rating"))

    def test_cross_tuple_edges_within_category(self, figure1_database, figure2_dag):
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        # Price of the Vaio laptop (p1) affects ratings of reviews of the Asus laptop (p2),
        # because both are in the Laptop category (the dashed edge of Figure 2).
        price_p1 = GroundVariable("Product", (1,), "Price")
        assert ground.has_edge(price_p1, GroundVariable("Review", (2, 2), "Rating"))
        # ... but not reviews of the camera (different category).
        assert not ground.has_edge(price_p1, GroundVariable("Review", (4, 5), "Rating"))

    def test_tuples_independent_across_categories(self, figure1_database, figure2_dag):
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        assert ground.tuples_are_independent("Product", (1,), "Product", (4,))
        assert not ground.tuples_are_independent("Product", (1,), "Product", (2,))
        assert not ground.tuples_are_independent("Product", (2,), "Review", (2, 2))

    def test_tuple_components_match_example7(self, figure1_database, figure2_dag):
        """Example 7: blocks are laptops+their reviews, camera+review, book."""
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        components = ground.tuple_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2, 8]

    def test_max_nodes_guard(self, figure1_database, figure2_dag):
        with pytest.raises(CausalModelError, match="block decomposition"):
            GroundCausalGraph(figure1_database, figure2_dag, max_nodes=5)

    def test_cross_relation_edge_without_fk_raises(self, figure1_database):
        dag = CausalDAG(nodes=["Quality", "Review.Rating"])
        dag.add_edge(CausalEdge("Quality", "Review.Rating"))
        db = figure1_database
        # remove the FK by rebuilding the database without it
        from repro.relational import Database

        no_fk = Database([db["Product"], db["Review"]])
        with pytest.raises(CausalModelError, match="foreign key"):
            GroundCausalGraph(no_fk, dag)
