"""Tests for possible-world enumeration and world distributions."""

import pytest

from repro.exceptions import HypeRError
from repro.probdb import (
    DiscreteWorldDistribution,
    MonteCarloWorlds,
    PossibleWorld,
    count_possible_worlds,
    enumerate_possible_worlds,
    worlds_from_samples,
)
from repro.relational import (
    AttributeSpec,
    CategoricalDomain,
    IntegerDomain,
    Relation,
    RelationSchema,
)


@pytest.fixture
def tiny_relation():
    schema = RelationSchema(
        "T",
        [
            AttributeSpec("ID", IntegerDomain(1, 3), mutable=False),
            AttributeSpec("Flag", CategoricalDomain([0, 1])),
            AttributeSpec("Level", CategoricalDomain(["lo", "hi"])),
        ],
        key=("ID",),
    )
    return Relation(schema, {"ID": [1, 2], "Flag": [0, 1], "Level": ["lo", "hi"]})


class TestEnumeration:
    def test_count(self, tiny_relation):
        # per tuple: 2 (Flag) * 2 (Level) = 4; two tuples -> 16 worlds
        assert count_possible_worlds(tiny_relation) == 16
        assert count_possible_worlds(tiny_relation, ["Flag"]) == 4

    def test_enumeration_yields_all_distinct_worlds(self, tiny_relation):
        worlds = list(enumerate_possible_worlds(tiny_relation, ["Flag"]))
        assert len(worlds) == 4
        signatures = {tuple(w.relation.column_view("Flag")) for w in worlds}
        assert signatures == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_immutable_attributes_never_change(self, tiny_relation):
        for world in enumerate_possible_worlds(tiny_relation, ["Flag"]):
            assert list(world.relation.column_view("ID")) == [1, 2]

    def test_no_mutable_attributes_yields_identity(self, tiny_relation):
        worlds = list(enumerate_possible_worlds(tiny_relation, []))
        assert len(worlds) == 1
        assert worlds[0].probability == 1.0

    def test_budget_guard(self, tiny_relation):
        with pytest.raises(HypeRError, match="refusing"):
            list(enumerate_possible_worlds(tiny_relation, max_worlds=3))

    def test_infinite_domain_rejected(self):
        relation = Relation.from_columns("R", {"K": [1], "X": [0.5]}, key=("K",))
        with pytest.raises(HypeRError, match="not finite"):
            list(enumerate_possible_worlds(relation, ["X"]))

    def test_negative_probability_rejected(self, tiny_relation):
        with pytest.raises(HypeRError):
            PossibleWorld(tiny_relation, -0.1)


class TestDistributions:
    def test_discrete_distribution_normalises(self, tiny_relation):
        worlds = [PossibleWorld(tiny_relation, 2.0), PossibleWorld(tiny_relation, 6.0)]
        dist = DiscreteWorldDistribution(worlds)
        assert dist.probabilities().tolist() == pytest.approx([0.25, 0.75])
        assert dist.expectation(lambda r: 1.0) == pytest.approx(1.0)

    def test_discrete_expectation_weights_by_probability(self, tiny_relation):
        flipped = tiny_relation.with_column("Flag", [1, 1])
        dist = DiscreteWorldDistribution(
            [PossibleWorld(tiny_relation, 0.25), PossibleWorld(flipped, 0.75)]
        )
        value = dist.expectation(lambda r: float(sum(r.column_view("Flag"))))
        assert value == pytest.approx(0.25 * 1 + 0.75 * 2)

    def test_expectation_of_constant_functional(self, tiny_relation):
        flipped = tiny_relation.with_column("Flag", [1, 1])
        dist = DiscreteWorldDistribution(
            [PossibleWorld(tiny_relation, 0.1), PossibleWorld(flipped, 0.9)]
        )
        assert dist.expectation(lambda r: 42.0) == pytest.approx(42.0)
        assert MonteCarloWorlds([tiny_relation, flipped]).expectation(lambda r: 42.0) == 42.0

    def test_empty_distribution_rejected(self):
        with pytest.raises(HypeRError):
            DiscreteWorldDistribution([])

    def test_monte_carlo_expectation(self, tiny_relation):
        flipped = tiny_relation.with_column("Flag", [1, 1])
        worlds = MonteCarloWorlds([tiny_relation, flipped])
        assert worlds.expectation(lambda r: float(sum(r.column_view("Flag")))) == pytest.approx(1.5)
        assert len(worlds) == 2

    def test_monte_carlo_requires_samples(self):
        with pytest.raises(HypeRError):
            MonteCarloWorlds([])

    def test_worlds_from_samples_equal_weights(self, tiny_relation):
        worlds = worlds_from_samples([tiny_relation, tiny_relation])
        assert [w.probability for w in worlds] == [0.5, 0.5]
        assert worlds_from_samples([]) == []
