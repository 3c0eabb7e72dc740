"""Tests for the block-independent decomposition."""

import pytest

from repro.causal import CausalDAG, CausalEdge
from repro.exceptions import CausalModelError
from repro.probdb import decompose_into_blocks
from tests.causal.ground_graph import GroundCausalGraph

from . import row_count


class TestDecomposition:
    def test_no_dag_gives_singleton_blocks(self, figure1_database):
        decomposition = decompose_into_blocks(figure1_database, None)
        assert len(decomposition) == figure1_database.total_rows
        assert all(row_count(block) == 1 for block in decomposition)

    def test_example7_blocks_by_category(self, figure1_database, figure2_dag):
        """Example 7: laptops + their reviews, camera + its review, book alone."""
        decomposition = decompose_into_blocks(figure1_database, figure2_dag)
        sizes = sorted(row_count(block) for block in decomposition)
        assert sizes == [1, 2, 8]

    def test_blocks_partition_every_tuple(self, figure1_database, figure2_dag):
        decomposition = decompose_into_blocks(figure1_database, figure2_dag)
        decomposition.validate_cover(figure1_database)
        total = sum(row_count(block) for block in decomposition)
        assert total == figure1_database.total_rows

    def test_block_of_row_lookup(self, figure1_database, figure2_dag):
        decomposition = decompose_into_blocks(figure1_database, figure2_dag)

        def block_of(row):
            (block,) = [b for b in decomposition if row in b.rows.get("Product", ())]
            return block

        laptop_block = block_of(0)
        assert block_of(1).index == laptop_block.index
        assert block_of(3).index != laptop_block.index
        assert not [b for b in decomposition if 99 in b.rows.get("Product", ())]

    def test_matches_explicit_ground_graph_components(self, figure1_database, figure2_dag):
        """The key-value decomposition must agree with explicit grounding."""
        ground = GroundCausalGraph(figure1_database, figure2_dag)
        explicit = sorted(len(c) for c in ground.tuple_components())
        fast = sorted(row_count(b) for b in decompose_into_blocks(figure1_database, figure2_dag))
        assert explicit == fast

    def test_fk_only_edges_merge_linked_tuples(self, figure1_database):
        dag = CausalDAG(nodes=["Quality", "Review.Rating"])
        dag.add_edge(CausalEdge("Quality", "Review.Rating"))
        decomposition = decompose_into_blocks(figure1_database, dag)
        # every product merges with its own reviews only: p1+1, p2+2, p3+2, p4+1, p5+0
        sizes = sorted(row_count(block) for block in decomposition)
        assert sizes == [1, 2, 2, 3, 3]

    def test_cross_tuple_without_grouping_merges_relation(self, figure1_database):
        dag = CausalDAG(nodes=["Price", "Quality"])
        dag.add_edge(CausalEdge("Price", "Quality", cross_tuple=True))
        decomposition = decompose_into_blocks(figure1_database, dag)
        # all products merge into one block; reviews stay singletons
        sizes = sorted(row_count(block) for block in decomposition)
        assert sizes == [1, 1, 1, 1, 1, 1, 5]

    def test_student_blocks_one_per_student(self, small_student):
        decomposition = decompose_into_blocks(small_student.database, small_student.causal_dag)
        assert len(decomposition) == small_student.metadata["n_students"]
        # each block holds the student plus its five participation rows
        assert all(row_count(block) == 6 for block in decomposition)

    def test_amazon_blocks_grouped_by_category(self, small_amazon):
        decomposition = decompose_into_blocks(small_amazon.database, small_amazon.causal_dag)
        # one block per category present in the data
        categories = set(small_amazon.database["Product"].column_view("Category"))
        assert len(decomposition) == len(categories)


def test_two_edges_grouped_alike_make_one_rule_and_a_dotted_group_is_read(figure1_database):
    from repro.probdb.blocks import label_columns

    dag = CausalDAG(nodes=["Price", "Quality", "Color"])
    dag.add_edge(CausalEdge("Price", "Quality", cross_tuple=True, within="Category"))
    dag.add_edge(CausalEdge("Price", "Color", cross_tuple=True, within="Category"))
    sizes = sorted(row_count(block) for block in decompose_into_blocks(figure1_database, dag))
    assert sizes == [1] * 8 + [3]  # the three laptops; the camera, the ebook, 6 reviews
    dotted = CausalDAG(nodes=["Price", "Quality"])
    dotted.add_edge(CausalEdge("Price", "Quality", cross_tuple=True, within="Product.Category"))
    assert ("Product", "Category") in label_columns(figure1_database, dotted)


def test_a_group_attribute_of_an_unlinked_relation_is_refused(figure1_product):
    from repro import Database, Relation

    other = Relation.from_columns("Shop", {"SID": [1], "Region": ["EU"]}, key=("SID",))
    dag = CausalDAG(nodes=["Price", "Quality"])
    dag.add_edge(CausalEdge("Price", "Quality", cross_tuple=True, within="Region"))
    with pytest.raises(CausalModelError, match="no foreign key links 'Product' to 'Shop'"):
        decompose_into_blocks(Database([figure1_product, other]), dag)
