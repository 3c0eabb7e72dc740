"""Shared fixtures for the HypeR test suite.

The ``figure1_*`` fixtures reconstruct the running example of the paper
(Figure 1's Amazon product/review database and Figure 2's causal graph) so unit
tests can check behaviour against the worked examples.  The ``small_*``
fixtures are session-scoped scaled-down synthetic datasets used by the engine
and integration tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import CausalDAG, CausalEdge, Database, EngineConfig, ForeignKey, Relation
from repro.relational import (
    AggregatedAttribute,
    AttributeSpec,
    CategoricalDomain,
    IntegerDomain,
    NumericDomain,
    RelationSchema,
    UseSpec,
)
from repro.datasets import make_adult_syn, make_amazon_syn, make_german_syn, make_student_syn

# Tier-1 and the line-coverage run draw the same Hypothesis examples on every
# run, so a line reached by one draw is reached by all of them.  Fresh draws
# run in their own CI job, which prints its seed; a red run replays with
#   python -m pytest --hypothesis-profile=random --hypothesis-seed=<seed> <files>
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("derandomized")


# ---------------------------------------------------------------------------
# Figure 1: the paper's running example database
# ---------------------------------------------------------------------------


@pytest.fixture
def figure1_product() -> Relation:
    schema = RelationSchema(
        "Product",
        [
            AttributeSpec("PID", IntegerDomain(1, 10), mutable=False),
            AttributeSpec(
                "Category",
                CategoricalDomain(["Laptop", "DSLR Camera", "Sci Fi eBooks"]),
                mutable=False,
            ),
            AttributeSpec("Price", NumericDomain(0.0, 500_000.0)),
            AttributeSpec(
                "Brand",
                CategoricalDomain(["Vaio", "Asus", "HP", "Canon", "Fantasy Press"]),
                mutable=False,
            ),
            AttributeSpec("Color", CategoricalDomain(["Silver", "Black", "Blue"])),
            AttributeSpec("Quality", NumericDomain(0.0, 1.0)),
        ],
        key=("PID",),
    )
    rows = [
        {"PID": 1, "Category": "Laptop", "Price": 999.0, "Brand": "Vaio", "Color": "Silver", "Quality": 0.7},
        {"PID": 2, "Category": "Laptop", "Price": 529.0, "Brand": "Asus", "Color": "Black", "Quality": 0.65},
        {"PID": 3, "Category": "Laptop", "Price": 599.0, "Brand": "HP", "Color": "Silver", "Quality": 0.5},
        {"PID": 4, "Category": "DSLR Camera", "Price": 549.0, "Brand": "Canon", "Color": "Black", "Quality": 0.75},
        {"PID": 5, "Category": "Sci Fi eBooks", "Price": 15.99, "Brand": "Fantasy Press", "Color": "Blue", "Quality": 0.4},
    ]
    return Relation.from_rows(schema, rows)


@pytest.fixture
def figure1_review() -> Relation:
    schema = RelationSchema(
        "Review",
        [
            AttributeSpec("PID", IntegerDomain(1, 10), mutable=False),
            AttributeSpec("ReviewID", IntegerDomain(1, 10), mutable=False),
            AttributeSpec("Sentiment", NumericDomain(-1.0, 1.0)),
            AttributeSpec("Rating", IntegerDomain(1, 5)),
        ],
        key=("PID", "ReviewID"),
    )
    rows = [
        {"PID": 1, "ReviewID": 1, "Sentiment": -0.95, "Rating": 2},
        {"PID": 2, "ReviewID": 2, "Sentiment": 0.7, "Rating": 4},
        {"PID": 2, "ReviewID": 3, "Sentiment": -0.2, "Rating": 1},
        {"PID": 3, "ReviewID": 3, "Sentiment": 0.23, "Rating": 3},
        {"PID": 3, "ReviewID": 5, "Sentiment": 0.95, "Rating": 5},
        {"PID": 4, "ReviewID": 5, "Sentiment": 0.7, "Rating": 4},
    ]
    return Relation.from_rows(schema, rows)


@pytest.fixture
def figure1_database(figure1_product, figure1_review) -> Database:
    return Database(
        [figure1_product, figure1_review],
        foreign_keys=[ForeignKey("Review", ("PID",), "Product", ("PID",))],
    )


@pytest.fixture
def figure2_dag() -> CausalDAG:
    """The causal graph of Figure 2 over the Figure 1 schema."""
    dag = CausalDAG(
        nodes=[
            "Category",
            "Brand",
            "Color",
            "Quality",
            "Price",
            "Review.Sentiment",
            "Review.Rating",
        ]
    )
    for edge in [
        CausalEdge("Category", "Quality"),
        CausalEdge("Brand", "Quality"),
        CausalEdge("Category", "Price"),
        CausalEdge("Brand", "Price"),
        CausalEdge("Quality", "Price"),
        CausalEdge("Quality", "Review.Rating"),
        CausalEdge("Quality", "Review.Sentiment"),
        CausalEdge("Color", "Review.Sentiment"),
        CausalEdge("Price", "Review.Rating", cross_tuple=True, within="Category"),
        CausalEdge("Price", "Review.Sentiment"),
    ]:
        dag.add_edge(edge)
    return dag


@pytest.fixture
def figure4_use() -> UseSpec:
    """The relevant view of the Figure 4 what-if query."""
    return UseSpec(
        base_relation="Product",
        attributes=["PID", "Category", "Price", "Brand"],
        aggregated=[
            AggregatedAttribute("Senti", "Review", "Sentiment", "avg"),
            AggregatedAttribute("Rtng", "Review", "Rating", "avg"),
        ],
        name="RelevantView",
    )


# ---------------------------------------------------------------------------
# Scaled-down synthetic datasets (session-scoped: generated once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_german():
    return make_german_syn(400, seed=7)


@pytest.fixture(scope="session")
def small_adult():
    return make_adult_syn(400, seed=7)


@pytest.fixture(scope="session")
def small_student():
    return make_student_syn(150, seed=7)


@pytest.fixture(scope="session")
def small_amazon():
    return make_amazon_syn(150, seed=7)


@pytest.fixture
def fast_config() -> EngineConfig:
    """Configuration using the linear estimator so engine tests stay fast."""
    return EngineConfig(regressor="linear", random_state=0)
