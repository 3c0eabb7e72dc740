"""Tests for summary functions and the augmented causal graph (Sec. A.3.2)."""

import math

import pytest

from repro.causal import (
    AggregateSummary,
    AggregatedNode,
    CausalDAG,
    IdentitySummary,
    augment_causal_dag,
    make_summary,
)
from repro.exceptions import CausalModelError


class TestSummaryFunctions:
    def test_aggregate_summary_average(self):
        assert AggregateSummary("avg")([2, 4, None]) == pytest.approx(3.0)
        assert AggregateSummary("sum")([1, 2, 3]) == 6.0
        assert AggregateSummary("count")([1, 2, 3]) == 3.0

    def test_aggregate_summary_empty_is_nan(self):
        assert math.isnan(AggregateSummary("avg")([]))

    def test_identity_summary(self):
        assert IdentitySummary()([7]) == 7
        assert IdentitySummary()([]) is None
        with pytest.raises(CausalModelError):
            IdentitySummary()([1, 2])

    def test_make_summary(self):
        assert make_summary("avg").name == "avg"
        assert make_summary("identity").name == "identity"
        summary = AggregateSummary("sum")
        assert make_summary(summary) is summary


class TestAugmentedGraph:
    @pytest.fixture
    def dag(self):
        return CausalDAG(
            nodes=["Quality", "Price", "Rating", "Helpful"],
            edges=[("Quality", "Rating"), ("Price", "Rating"), ("Rating", "Helpful")],
        )

    def test_aggregated_node_inserted_between_source_and_children(self, dag):
        augmented = augment_causal_dag(dag, [AggregatedNode("Rtng", "Rating", "avg")])
        assert "Rtng" in augmented
        assert augmented.has_edge("Rating", "Rtng")
        assert augmented.has_edge("Rtng", "Helpful")
        assert not augmented.has_edge("Rating", "Helpful")
        # incoming edges to the source are untouched
        assert augmented.has_edge("Quality", "Rating")
        assert augmented.has_edge("Price", "Rating")

    def test_rename_applies_to_untouched_nodes(self, dag):
        augmented = augment_causal_dag(
            dag,
            [AggregatedNode("Rtng", "Rating", "avg")],
            rename={"Helpful": "HelpfulVotes"},
        )
        assert "HelpfulVotes" in augmented
        assert augmented.has_edge("Rtng", "HelpfulVotes")

    def test_unknown_source_raises(self, dag):
        with pytest.raises(CausalModelError):
            augment_causal_dag(dag, [AggregatedNode("X", "Nope", "avg")])

    def test_duplicate_aggregation_raises(self, dag):
        with pytest.raises(CausalModelError):
            augment_causal_dag(
                dag,
                [AggregatedNode("A", "Rating", "avg"), AggregatedNode("B", "Rating", "sum")],
            )

    def test_name_collision_raises(self, dag):
        with pytest.raises(CausalModelError):
            augment_causal_dag(dag, [AggregatedNode("Price", "Rating", "avg")])

    def test_result_is_acyclic_dag(self, dag):
        augmented = augment_causal_dag(dag, [AggregatedNode("Rtng", "Rating", "avg")])
        order = augmented.topological_order()
        assert order.index("Rating") < order.index("Rtng") < order.index("Helpful")
