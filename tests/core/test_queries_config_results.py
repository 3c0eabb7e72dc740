"""Tests for query objects, engine configuration and result containers."""

import pytest

from repro.api import count, how_to
from repro.core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from repro.core.results import BlockContribution, HowToResult, WhatIfResult
from repro.core.updates import AttributeUpdate, MultiplyBy, SetTo
from repro.core.config import EngineConfig, Variant
from repro.exceptions import QuerySemanticsError
from repro.relational import UseSpec, post, pre

from .oracles import candidate_what_if


USE = UseSpec(base_relation="Credit")


class TestWhatIfQuery:
    def test_valid_query(self):
        query = WhatIfQuery(
            use=USE,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            output_aggregate="count",
        )
        assert query.update_attributes == ["Status"]
        assert "Status" in query.describe()

    def test_requires_updates(self):
        with pytest.raises(QuerySemanticsError):
            WhatIfQuery(use=USE, updates=[], output_attribute="Credit")

    def test_output_cannot_be_updated_attribute(self):
        with pytest.raises(QuerySemanticsError):
            WhatIfQuery(
                use=USE,
                updates=[AttributeUpdate("Credit", SetTo(1))],
                output_attribute="Credit",
            )

    def test_when_cannot_use_post(self):
        with pytest.raises(QuerySemanticsError):
            WhatIfQuery(
                use=USE,
                updates=[AttributeUpdate("Status", SetTo(4))],
                output_attribute="Credit",
                when=post("Credit") == 1,
            )

    def test_invalid_aggregate(self):
        with pytest.raises(Exception):
            WhatIfQuery(
                use=USE,
                updates=[AttributeUpdate("Status", SetTo(4))],
                output_attribute="Credit",
                output_aggregate="median",
            )

    def test_with_updates_copy(self):
        query = WhatIfQuery(
            use=USE,
            updates=[AttributeUpdate("Status", SetTo(4))],
            output_attribute="Credit",
            when=pre("Age") > 30,
        )
        copy = query.with_updates([AttributeUpdate("Housing", SetTo(2))])
        assert copy.update_attributes == ["Housing"]
        assert copy.when is query.when
        assert query.update_attributes == ["Status"]


class TestLimitConstraint:
    def test_range_limit(self):
        limit = LimitConstraint("Price", lower=500, upper=800)
        assert limit.admits(529, 600)
        assert not limit.admits(529, 400)
        assert not limit.admits(529, 900)

    def test_l1_limit(self):
        limit = LimitConstraint("Price", max_l1=100)
        assert limit.admits(529, 600)
        assert not limit.admits(529, 700)

    def test_allowed_values(self):
        limit = LimitConstraint("Color", allowed_values=("Red", "Black"))
        assert limit.admits("Blue", "Red")
        assert not limit.admits("Blue", "Green")

    def test_non_numeric_post_with_numeric_limit(self):
        limit = LimitConstraint("Price", upper=10)
        assert not limit.admits(5, "cheap")


class TestHowToQuery:
    def make(self, **kwargs):
        defaults = dict(
            use=USE,
            update_attributes=["Status", "Housing"],
            objective_attribute="Credit",
            objective_aggregate="count",
        )
        defaults.update(kwargs)
        return HowToQuery(**defaults)

    def test_valid(self):
        query = self.make()
        assert query.maximize
        assert query.limits_for("Status") == []

    def test_duplicate_update_attributes(self):
        with pytest.raises(QuerySemanticsError):
            self.make(update_attributes=["Status", "Status"])

    def test_objective_cannot_be_updatable(self):
        with pytest.raises(QuerySemanticsError):
            self.make(update_attributes=["Credit"])

    def test_invalid_budget(self):
        with pytest.raises(QuerySemanticsError):
            self.make(max_updates=0)

    @pytest.mark.parametrize(
        "grid",
        [
            {"candidate_buckets": 0},
            {"candidate_buckets": -3},
            {"candidate_multipliers": (float("nan"),)},
            {"candidate_multipliers": (1.1, float("inf"))},
            {"candidate_multipliers": (float("-inf"),)},
        ],
    )
    def test_invalid_candidate_grid(self, grid):
        # the builder's .candidates(buckets=, multipliers=) reaches the same fields
        with pytest.raises(QuerySemanticsError, match="candidate"):
            self.make(**grid)
        buckets, multipliers = grid.get("candidate_buckets"), grid.get("candidate_multipliers")
        builder = (
            how_to().use("Credit").update_any("Status").maximize(count("Credit"))
            .candidates(buckets=buckets, multipliers=multipliers)
        )
        with pytest.raises(QuerySemanticsError, match="candidate"):
            builder.build()

    def test_candidate_what_if_construction(self):
        query = self.make(limits=[LimitConstraint("Status", lower=1, upper=4)])
        candidate = candidate_what_if(query, [AttributeUpdate("Status", SetTo(4))])
        assert candidate.output_attribute == "Credit"
        assert candidate.update_attributes == ["Status"]
        assert query.admits("Status", 2, 4)
        assert not query.admits("Status", 2, 9)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.variant == Variant.HYPER
        assert not config.is_sampled
        assert not config.ignores_dependencies

    def test_variant_helpers(self):
        config = EngineConfig().with_variant(Variant.HYPER_NB)
        assert config.adjusts_for_all_attributes
        sampled = EngineConfig().with_variant(Variant.HYPER_SAMPLED)
        assert sampled.is_sampled
        explicit = EngineConfig().with_sample_size(100)
        assert explicit.is_sampled
        indep = EngineConfig(variant=Variant.INDEP)
        assert indep.ignores_dependencies

    def test_invalid_settings(self):
        with pytest.raises(QuerySemanticsError):
            EngineConfig(variant="bogus")
        with pytest.raises(QuerySemanticsError):
            EngineConfig(sample_size=0)
        with pytest.raises(QuerySemanticsError):
            EngineConfig(n_forest_trees=0)

    def test_regressor_params(self):
        assert "n_estimators" in EngineConfig(regressor="forest").regressor_params()
        assert EngineConfig(regressor="linear").regressor_params() == {}


class TestResults:
    def test_whatif_result_summary_and_float(self):
        result = WhatIfResult(
            value=3.5,
            aggregate="avg",
            output_attribute="Rtng",
            n_view_tuples=10,
            n_scope_tuples=4,
            block_contributions=[BlockContribution(0, 3.5, 10, 4)],
            backdoor_set=("Quality",),
        )
        assert float(result) == 3.5
        assert "avg(Post(Rtng))" in result.summary()
        assert "Quality" in result.summary()

    def test_howto_result_plan_and_summary(self):
        result = HowToResult(
            recommended_updates=[AttributeUpdate("Price", MultiplyBy(1.1))],
            objective_value=4.2,
            baseline_value=4.0,
            per_attribute_choices={"Price": "1.1x Pre(Price)", "Color": "no change"},
        )
        assert result.changed_attributes == ["Price"]
        plan = result.plan()
        assert plan["Color"] == "no change"
        assert "1.1x" in plan["Price"]
        assert "maximize" in result.summary()

    def test_howto_minimise_improvement_sign(self):
        result = HowToResult(
            recommended_updates=[],
            objective_value=3.0,
            baseline_value=4.0,
            maximize=False,
        )
        assert "minimize objective = 3.0000 (baseline 4.0000)" in result.summary()
        assert result.changed_attributes == []
