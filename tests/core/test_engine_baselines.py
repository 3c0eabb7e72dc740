"""Tests for the HypeR facade, SQL execution, and the baselines/oracles."""

import numpy as np
import pytest

from repro import (
    AttributeUpdate,
    EngineConfig,
    GroundTruthOracle,
    HowToResult,
    HypeR,
    SetTo,
    Variant,
    WhatIfQuery,
    WhatIfResult,
)
from repro.core.baselines import make_indep_engine, naive_possible_world_value
from repro.exceptions import QuerySemanticsError
from repro.probdb import PossibleWorld
from repro.relational import UseSpec, post, pre

from .linear_fixture import make_linear_dataset, true_mean_y_under_do_b


@pytest.fixture(scope="module")
def linear_world():
    return make_linear_dataset(n=900, seed=11)


class TestHypeRFacade:
    def test_variant_helpers_return_new_sessions(self, linear_world):
        database, dag, _, _, _ = linear_world
        session = HypeR(database, dag, EngineConfig(regressor="linear"))
        assert session.no_background().config.variant == Variant.HYPER_NB
        assert session.independent_baseline().config.variant == Variant.INDEP
        sampled = session.sampled(123)
        assert sampled.config.sample_size == 123
        # the original session is unchanged
        assert session.config.variant == Variant.HYPER

    def test_execute_whatif_sql(self, small_german, fast_config):
        session = HypeR(small_german.database, small_german.causal_dag, fast_config)
        result = session.execute(
            "USE Credit WHEN Age > 25 UPDATE(Status) = 4 "
            "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        )
        assert isinstance(result, WhatIfResult)
        assert 0 <= result.value <= len(small_german.database["Credit"])

    def test_execute_howto_sql(self, small_german, fast_config):
        session = HypeR(small_german.database, small_german.causal_dag, fast_config)
        result = session.execute(
            "USE Credit HOWTOUPDATE Status, Housing "
            "LIMIT 1 <= POST(Status) <= 4 AND 1 <= POST(Housing) <= 3 "
            "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
        )
        assert isinstance(result, HowToResult)
        assert result.objective_value >= result.baseline_value - 1e-6

    def test_parse_without_execution(self, small_german):
        session = HypeR(small_german.database, small_german.causal_dag)
        query = session.parse("USE Credit UPDATE(Status) = 4 OUTPUT COUNT(Credit)")
        assert isinstance(query, WhatIfQuery)

    def test_how_to_exhaustive_flag(self, linear_world):
        database, dag, _, use, _ = linear_world
        from repro import HowToQuery, LimitConstraint

        session = HypeR(database, dag, EngineConfig(regressor="linear"))
        query = HowToQuery(
            use=use,
            update_attributes=["B"],
            objective_attribute="Y",
            limits=[LimitConstraint("B", lower=0.0, upper=10.0)],
            candidate_buckets=3,
            candidate_multipliers=(),
        )
        exhaustive = session.how_to(query, exhaustive=True)
        assert exhaustive.metadata["method"] == "opt-howto"


class TestIndepBaselineFactory:
    def test_make_indep_engine(self, linear_world):
        database, _, _, use, _ = linear_world
        engine = make_indep_engine(database)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("B", SetTo(9.0))],
            output_attribute="Y",
        )
        result = engine.evaluate(query)
        observed = float(np.mean(np.asarray(database["Obs"].column_view("Y"), dtype=float)))
        assert result.value == pytest.approx(observed)
        assert result.variant == Variant.INDEP


class TestGroundTruthOracle:
    def test_oracle_matches_closed_form(self, linear_world):
        database, dag, scm, use, columns = linear_world
        oracle = GroundTruthOracle(scm, n_repeats=10, random_state=0)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("B", SetTo(5.0))],
            output_attribute="Y",
            output_aggregate="avg",
        )
        value = oracle.evaluate(query, database)
        assert value == pytest.approx(true_mean_y_under_do_b(5.0, columns["X"]), rel=0.03)

    def test_oracle_agrees_with_hyper_engine(self, linear_world):
        database, dag, scm, use, columns = linear_world
        oracle = GroundTruthOracle(scm, n_repeats=10, random_state=1)
        session = HypeR(database, dag, EngineConfig(regressor="linear"))
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("B", SetTo(7.0))],
            output_attribute="Y",
            output_aggregate="avg",
        )
        assert session.what_if(query).value == pytest.approx(
            oracle.evaluate(query, database), rel=0.07
        )

    def test_oracle_with_count_and_for(self, linear_world):
        database, dag, scm, use, _ = linear_world
        oracle = GroundTruthOracle(scm, n_repeats=5, random_state=2)
        query = WhatIfQuery(
            use=use,
            updates=[AttributeUpdate("B", SetTo(9.0))],
            output_attribute="Y",
            output_aggregate="count",
            for_clause=(post("Y") > 20.0) & (pre("X") > 2.0),
        )
        value = oracle.evaluate(query, database)
        assert 0 <= value <= len(database["Obs"])

    def test_invalid_repeats(self, linear_world):
        _, _, scm, _, _ = linear_world
        with pytest.raises(QuerySemanticsError):
            GroundTruthOracle(scm, n_repeats=0)


class TestNaivePossibleWorlds:
    def test_expectation_over_explicit_worlds(self, figure1_database, figure4_use):
        """Definition 5 on a two-world distribution built by hand."""
        product = figure1_database["Product"]
        expensive = product.with_column(
            "Price", [p * 2 for p in product.column_view("Price")]
        )
        worlds = [PossibleWorld(product, 0.5), PossibleWorld(expensive, 0.5)]
        query = WhatIfQuery(
            use=figure4_use,
            updates=[AttributeUpdate("Color", SetTo("Silver"))],  # updates are not re-applied here
            output_attribute="Price",
            output_aggregate="avg",
            for_clause=pre("Category") == "Laptop",
        )
        value = naive_possible_world_value(query, figure1_database, worlds)
        laptop_prices = [999.0, 529.0, 599.0]
        expected = 0.5 * np.mean(laptop_prices) + 0.5 * np.mean([p * 2 for p in laptop_prices])
        assert value == pytest.approx(expected)

    def test_requires_worlds(self, figure1_database, figure4_use):
        query = WhatIfQuery(
            use=figure4_use,
            updates=[AttributeUpdate("Price", SetTo(0.0))],
            output_attribute="Rtng",
        )
        with pytest.raises(QuerySemanticsError):
            naive_possible_world_value(query, figure1_database, None)
