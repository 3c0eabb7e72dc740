"""Tests for d-separation and the backdoor criterion."""

import random
import time

import pytest

from repro.causal import (
    CausalDAG,
    d_separated,
    eligible_adjustment_attributes,
    find_backdoor_set,
    minimal_backdoor_set,
    satisfies_backdoor,
)
from repro.exceptions import IdentificationError

from . import oracles
from .oracles import all_backdoor_paths, path_is_blocked


@pytest.fixture
def confounded():
    """Classic confounding: U -> T, U -> Y, T -> Y."""
    return CausalDAG(nodes=["T", "Y", "U"], edges=[("U", "T"), ("U", "Y"), ("T", "Y")])


@pytest.fixture
def mediator():
    """T -> M -> Y with no confounding."""
    return CausalDAG(nodes=["T", "M", "Y"], edges=[("T", "M"), ("M", "Y")])


@pytest.fixture
def collider_graph():
    """T -> Y, plus a collider T -> C <- Y."""
    return CausalDAG(
        nodes=["T", "Y", "C"], edges=[("T", "Y"), ("T", "C"), ("Y", "C")]
    )


@pytest.fixture
def figure3_style():
    """Within-tuple slice of the paper's Figure 2/3 graph."""
    dag = CausalDAG(
        nodes=["Category", "Brand", "Quality", "Price", "Rating", "Sentiment", "Color"]
    )
    for edge in [
        ("Category", "Quality"),
        ("Brand", "Quality"),
        ("Category", "Price"),
        ("Brand", "Price"),
        ("Quality", "Price"),
        ("Quality", "Rating"),
        ("Price", "Rating"),
        ("Quality", "Sentiment"),
        ("Price", "Sentiment"),
        ("Color", "Sentiment"),
    ]:
        dag.add_edge(edge)
    return dag


class TestDSeparation:
    def test_chain_blocked_by_middle(self, mediator):
        assert not d_separated(mediator, "T", "Y")
        assert d_separated(mediator, "T", "Y", ["M"])

    def test_confounder_blocks_backdoor(self, confounded):
        # direct edge T -> Y means they are never d-separated
        assert not d_separated(confounded, "T", "Y", ["U"])
        # but the backdoor path T <- U -> Y is blocked by U
        path = ["T", "U", "Y"]
        assert path_is_blocked(confounded, path, ["U"])
        assert not path_is_blocked(confounded, path, [])

    def test_collider_blocks_when_unconditioned(self, collider_graph):
        path = ["T", "C", "Y"]
        assert path_is_blocked(collider_graph, path, [])
        assert not path_is_blocked(collider_graph, path, ["C"])

    def test_direct_edge_never_blocked(self, confounded):
        assert not path_is_blocked(confounded, ["T", "Y"], ["U"])


class TestBackdoorPaths:
    def test_backdoor_paths_enumerated(self, confounded):
        paths = all_backdoor_paths(confounded, "T", "Y")
        assert [tuple(p) for p in paths] == [("T", "U", "Y")]

    def test_no_backdoor_paths_in_mediator(self, mediator):
        assert all_backdoor_paths(mediator, "T", "Y") == []


class TestBackdoorCriterion:
    def test_eligible_excludes_descendants(self, figure3_style):
        eligible = eligible_adjustment_attributes(figure3_style, "Price", "Rating")
        assert "Sentiment" not in eligible  # descendant of Price
        assert "Quality" in eligible
        assert "Price" not in eligible and "Rating" not in eligible

    def test_satisfies_backdoor(self, confounded):
        assert satisfies_backdoor(confounded, "T", "Y", ["U"])
        assert not satisfies_backdoor(confounded, "T", "Y", [])

    def test_descendant_not_allowed_in_adjustment(self, mediator):
        assert not satisfies_backdoor(mediator, "T", "Y", ["M"])
        assert satisfies_backdoor(mediator, "T", "Y", [])

    def test_find_backdoor_set(self, confounded):
        assert find_backdoor_set(confounded, "T", "Y") == {"U"}

    def test_find_backdoor_unknown_attribute(self, confounded):
        with pytest.raises(IdentificationError):
            find_backdoor_set(confounded, "T", "Z")

    def test_minimal_backdoor_set_quality_for_price_rating(self, figure3_style):
        adjustment = minimal_backdoor_set(figure3_style, "Price", "Rating")
        # Quality alone blocks the backdoor paths Price <- Quality -> Rating and
        # Price <- {Brand, Category} -> Quality -> Rating.
        assert adjustment == {"Quality"}

    def test_minimal_set_empty_when_no_confounding(self, mediator):
        assert minimal_backdoor_set(mediator, "T", "Y") == set()

    def test_backdoor_example_from_paper_sentiment_rating(self, figure3_style):
        """Sec 3.3's {Brand, Quality, Category} leaves Sentiment <- Price -> Rating
        open in this slice, where Price confounds the two; adding Price blocks it."""
        paper_set = ["Brand", "Quality", "Category"]
        assert satisfies_backdoor(figure3_style, "Sentiment", "Rating", paper_set) is False
        assert not all(
            path_is_blocked(figure3_style, path, paper_set)
            for path in all_backdoor_paths(figure3_style, "Sentiment", "Rating")
        )
        # a set holding the common causes of Sentiment and Rating blocks every path
        assert satisfies_backdoor(figure3_style, "Sentiment", "Rating", ["Quality", "Price"])


# -- the greedy search against the path oracle -----------------------------------------


def _satisfies_by_paths(dag, treatment, outcome, adjustment):
    return adjustment <= eligible_adjustment_attributes(dag, treatment, outcome) and all(
        path_is_blocked(dag, path, adjustment)
        for path in all_backdoor_paths(dag, treatment, outcome)
    )


def _minimal_backdoor_set_reference(dag, treatment, outcome):
    """The search as §A.2 states it: every trial set re-enumerates the backdoor
    paths and checks each one (the path oracle)."""
    if treatment not in dag or outcome not in dag:
        missing = [a for a in (treatment, outcome) if a not in dag]
        raise IdentificationError(f"attributes {missing} are not in the causal DAG")
    current = eligible_adjustment_attributes(dag, treatment, outcome)
    if not _satisfies_by_paths(dag, treatment, outcome, current):
        raise IdentificationError(
            f"no backdoor adjustment set exists for {treatment!r} -> {outcome!r}"
        )
    for attribute in sorted(current):
        reduced = current - {attribute}
        if _satisfies_by_paths(dag, treatment, outcome, reduced):
            current = reduced
    return current


def _outcome_of(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except IdentificationError as error:
        return str(error)


@pytest.mark.parametrize(
    "dataset", ["small_german", "small_adult", "small_amazon", "small_student"]
)
def test_minimal_set_equals_the_per_trial_enumeration_on_bundled_dags(dataset, request):
    """Every (treatment, outcome) pair of the four bundled datasets' DAGs."""
    dag = request.getfixturevalue(dataset).causal_dag
    pairs = [(t, o) for t in dag.nodes for o in dag.nodes if t != o]
    assert pairs
    for treatment, outcome in pairs:
        want = _outcome_of(_minimal_backdoor_set_reference, dag, treatment, outcome)
        assert _outcome_of(minimal_backdoor_set, dag, treatment, outcome) == want
        assert _outcome_of(oracles.minimal_backdoor_set, dag, treatment, outcome) == want
        if isinstance(want, set):
            assert find_backdoor_set(dag, treatment, outcome) >= want
        else:
            assert _outcome_of(find_backdoor_set, dag, treatment, outcome) == want
        for z in ([], sorted(dag.nodes)[::2], [treatment, outcome]):
            assert d_separated(dag, treatment, outcome, z) == oracles.d_separated(
                dag, treatment, outcome, z
            )


def _random_dag(n_nodes: int, edge_probability: float = 0.3) -> CausalDAG:
    rng = random.Random(n_nodes)
    nodes = [f"N{i}" for i in range(n_nodes)]
    return CausalDAG(
        nodes,
        [
            (nodes[i], nodes[j])
            for i in range(n_nodes)
            for j in range(i + 1, n_nodes)
            if rng.random() < edge_probability
        ],
    )


def test_the_search_on_a_forty_node_dag_takes_under_a_second():
    """A few hundred edges: the path count explodes, the reachability passes do not."""
    dag = _random_dag(40)
    assert len(dag.edges) > 200
    started = time.perf_counter()
    adjustment = minimal_backdoor_set(dag, "N20", "N39")
    assert time.perf_counter() - started < 1.0  # the path search would not finish
    assert satisfies_backdoor(dag, "N20", "N39", adjustment)
    for attribute in adjustment:  # minimal: no member can go
        assert not satisfies_backdoor(dag, "N20", "N39", adjustment - {attribute})
