"""Fluent builder: fingerprint parity with text, cache sharing, validation."""

from __future__ import annotations

import pytest

from repro import EngineConfig, HypeR, HypeRService
from repro.api import avg, count, how_to, multiply, set_, sum_, what_if
from repro.api.builder import add
from repro.api.calls import as_text
from repro.core.config import EngineConfig as Config
from repro.core.queries import HowToQuery, WhatIfQuery
from repro.datasets import make_german_syn
from repro.exceptions import QuerySemanticsError, UnparseError
from repro.lang import parse_query, unparse
from repro.relational.expressions import col, post, pre
from repro.service.fingerprint import fingerprint_query

CONFIG = Config(regressor="linear")

#: the 20-query builder-vs-text parity suite: (builder, equivalent text)
SUITE = [
    (
        what_if().use("Credit").update(set_("Status", 4)).output(avg("Credit")),
        "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
    ),
    (
        what_if().use("Credit").update(set_("Status", 4)).output(count("Credit"))
        .for_(post("Credit") == 1),
        "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    ),
    (
        what_if().use("Credit").update(set_("Status", 2)).output(sum_("Credit")),
        "USE Credit UPDATE(Status) = 2 OUTPUT SUM(POST(Credit))",
    ),
    (
        what_if().use("Credit", "Status", "Credit", "Age")
        .update(set_("Status", 1)).output(avg("Credit")),
        "USE Credit (Status, Credit, Age) UPDATE(Status) = 1 OUTPUT AVG(POST(Credit))",
    ),
    (
        what_if().use("Credit").when(col("Age") >= 30)
        .update(set_("CreditAmount", 1000)).output(avg("Risk")),
        "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = 1000 OUTPUT AVG(POST(Risk))",
    ),
    (
        what_if().use("Credit").update(multiply("CreditAmount", 1.1)).output(avg("Risk")),
        "USE Credit UPDATE(CreditAmount) = 1.1 * PRE(CreditAmount) "
        "OUTPUT AVG(POST(Risk))",
    ),
    (
        what_if().use("Credit").update(add("CreditAmount", -200.0)).output(sum_("Risk")),
        "USE Credit UPDATE(CreditAmount) = -200 + PRE(CreditAmount) "
        "OUTPUT SUM(POST(Risk))",
    ),
    (
        what_if().use("Credit").when((col("Age") > 30) | (col("Housing") == "own"))
        .update(set_("Status", 4)).output(avg("Credit")),
        "USE Credit WHEN Age > 30 OR Housing = 'own' UPDATE(Status) = 4 "
        "OUTPUT AVG(POST(Credit))",
    ),
    (
        what_if().use("Credit").when(~col("Status").isin([1, 2]))
        .update(set_("Status", 4)).output(avg("Credit")),
        "USE Credit WHEN NOT Status IN (1, 2) UPDATE(Status) = 4 "
        "OUTPUT AVG(POST(Credit))",
    ),
    (
        what_if().use("Credit")
        .update(set_("Status", 4), multiply("Duration", 0.5))
        .output(avg("Credit")).for_((post("Credit") == 1) & (pre("Age") < 40)),
        "USE Credit UPDATE(Status) = 4 AND UPDATE(Duration) = 0.5 * PRE(Duration) "
        "OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) < 40",
    ),
    (
        what_if().use("Product").with_aggregate("Rtng", "Review", "Rating", "avg")
        .when(col("Brand") == "Asus").update(multiply("Price", 1.1))
        .output(avg("Rtng")).for_(pre("Category") == "Laptop"),
        "USE Product WITH AVG(Review.Rating) AS Rtng WHEN Brand = 'Asus' "
        "UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Rtng)) "
        "FOR PRE(Category) = 'Laptop'",
    ),
    (
        what_if().use("Credit").update(set_("Housing", "rent")).output(avg("Credit"))
        .for_((post("Credit") == 1) | (pre("Age") >= 50)),
        "USE Credit UPDATE(Housing) = 'rent' OUTPUT AVG(POST(Credit)) "
        "FOR POST(Credit) = 1 OR PRE(Age) >= 50",
    ),
    (
        what_if().use("Credit").when(pre("Age") > -1).update(set_("Status", -3))
        .output(avg("Credit")),
        "USE Credit WHEN PRE(Age) > -1 UPDATE(Status) = -3 OUTPUT AVG(POST(Credit))",
    ),
    (
        what_if().use("Credit").when((col("Age") >= 20) & (col("Age") <= 60))
        .update(add("Duration", 6)).output(count("Credit")),
        "USE Credit WHEN Age >= 20 AND Age <= 60 "
        "UPDATE(Duration) = 6 + PRE(Duration) OUTPUT COUNT(POST(Credit))",
    ),
    (
        how_to().use("Credit").update_any("CreditAmount").maximize(avg("Risk")),
        "USE Credit HOWTOUPDATE CreditAmount TOMAXIMIZE AVG(POST(Risk))",
    ),
    (
        how_to().use("Credit").update_any("CreditAmount")
        .limit("CreditAmount", lower=100, upper=5000)
        .limit("CreditAmount", max_l1=300)
        .maximize(avg("Risk")).for_(pre("Age") > 25),
        "USE Credit HOWTOUPDATE CreditAmount "
        "LIMIT 100 <= POST(CreditAmount) <= 5000 AND "
        "L1(PRE(CreditAmount), POST(CreditAmount)) <= 300 "
        "TOMAXIMIZE AVG(POST(Risk)) FOR PRE(Age) > 25",
    ),
    (
        how_to().use("Credit").update_any("Duration", "CreditAmount")
        .limit("Duration", values=(6, 12, 24)).minimize(sum_("Risk")),
        "USE Credit HOWTOUPDATE Duration, CreditAmount "
        "LIMIT POST(Duration) IN (6, 12, 24) TOMINIMIZE SUM(POST(Risk))",
    ),
    (
        how_to().use("Credit").when(col("Age") >= 35).update_any("Duration")
        .limit("Duration", lower=6).limit("Duration", upper=48)
        .maximize(count("Credit")),
        "USE Credit WHEN Age >= 35 HOWTOUPDATE Duration "
        "LIMIT POST(Duration) >= 6 AND POST(Duration) <= 48 "
        "TOMAXIMIZE COUNT(POST(Credit))",
    ),
    (
        how_to().use("Credit").update_any("CreditAmount")
        .limit("CreditAmount", lower=-100.0, upper=-10.0).maximize(avg("Risk")),
        "USE Credit HOWTOUPDATE CreditAmount "
        "LIMIT -100 <= POST(CreditAmount) <= -10 TOMAXIMIZE AVG(POST(Risk))",
    ),
    (
        how_to().use("Credit").update_any("Duration").when(col("Housing") == "own")
        .minimize(avg("Risk")).for_(post("Risk") >= 0),
        "USE Credit WHEN Housing = 'own' HOWTOUPDATE Duration "
        "TOMINIMIZE AVG(POST(Risk)) FOR POST(Risk) >= 0",
    ),
]


class TestFingerprintParity:
    def test_suite_has_twenty_queries(self):
        assert len(SUITE) == 20

    @pytest.mark.parametrize("case", range(len(SUITE)))
    def test_builder_and_text_fingerprints_match(self, case):
        builder, text = SUITE[case]
        built = builder.build()
        parsed = parse_query(text)
        assert type(built) is type(parsed)
        assert fingerprint_query(built, CONFIG) == fingerprint_query(parsed, CONFIG)

    @pytest.mark.parametrize("case", range(len(SUITE)))
    def test_builder_text_round_trip(self, case):
        builder, text = SUITE[case]
        rendered = builder.text()
        assert fingerprint_query(parse_query(rendered), CONFIG) == fingerprint_query(
            builder.build(), CONFIG
        )
        # unparse of the parsed text equals unparse of the built query: one
        # canonical rendering for both construction paths
        assert unparse(parse_query(text)) == rendered


class TestBuilderSemantics:
    def test_builders_are_immutable_templates(self):
        template = what_if().use("Credit").update(set_("Status", 4))
        first = template.output(avg("Credit")).build()
        second = template.output(sum_("Risk")).build()
        assert first.output_attribute == "Credit"
        assert second.output_attribute == "Risk"
        # the template itself was never mutated
        with pytest.raises(QuerySemanticsError, match="output"):
            template.build()

    def test_missing_use_is_rejected(self):
        with pytest.raises(QuerySemanticsError, match="use"):
            what_if().update(set_("Status", 4)).output(avg("Credit")).build()

    def test_missing_updates_are_rejected(self):
        with pytest.raises(QuerySemanticsError):
            what_if().use("Credit").output(avg("Credit")).build()

    def test_how_to_needs_objective_and_attributes(self):
        with pytest.raises(QuerySemanticsError, match="maximize"):
            how_to().use("Credit").update_any("Duration").build()
        with pytest.raises(QuerySemanticsError, match="update_any"):
            how_to().use("Credit").maximize(avg("Risk")).build()

    def test_output_accepts_bare_attribute_as_avg(self):
        query = what_if().use("Credit").update(set_("Status", 4)).output("Credit").build()
        assert query.output_aggregate == "avg"

    def test_candidate_grid_passthrough(self):
        query = (
            how_to().use("Credit").update_any("Duration")
            .candidates(buckets=3, multipliers=(0.9, 1.1))
            .maximize(avg("Risk")).build()
        )
        assert query.candidate_buckets == 3
        assert query.candidate_multipliers == (0.9, 1.1)

    def test_update_rejects_non_update_terms(self):
        with pytest.raises(QuerySemanticsError, match="set_/add/multiply"):
            what_if().use("Credit").update("Status = 4")


class TestInProcessVerbs:
    """``max_changes`` and ``candidates`` have no query syntax: they build the
    query object in process, and refuse to become text for the wire."""

    def test_max_changes_is_max_updates(self):
        built = (
            how_to().use("Credit").update_any("Status", "Housing", "Savings")
            .max_changes(1).maximize(avg("Credit")).build()
        )
        assert built == HowToQuery(
            use=built.use,
            update_attributes=["Status", "Housing", "Savings"],
            objective_attribute="Credit",
            max_updates=1,
        )

    def test_how_to_changes_at_most_n_attributes(self):
        dataset = make_german_syn(500, seed=0)
        session = HypeR(dataset.database, dataset.causal_dag, CONFIG)
        builder = (
            how_to().use("Credit").update_any("Status", "Housing", "Savings")
            .maximize(avg("Credit"))
        )
        unbounded = session.how_to(builder.build())
        assert len(unbounded.changed_attributes) > 1  # the budget has work to do
        for n in (1, 2):
            bounded = session.how_to(builder.max_changes(n).build())
            assert 1 <= len(bounded.changed_attributes) <= n

    @pytest.mark.parametrize(
        "verb, field",
        [
            (lambda b: b.max_changes(1), "max_updates"),
            (lambda b: b.candidates(buckets=3), "candidate_buckets"),
            (lambda b: b.candidates(multipliers=(0.9, 1.1)), "candidate_multipliers"),
        ],
        ids=["max_changes", "candidates-buckets", "candidates-multipliers"],
    )
    def test_as_text_names_the_field_without_syntax(self, verb, field):
        builder = verb(how_to().use("Credit").update_any("Status").maximize(avg("Credit")))
        with pytest.raises(UnparseError, match=f"how-to field {field}="):
            as_text(builder)


class TestSharedCaches:
    """Builder-made and text-parsed queries share service caches and answers."""

    @pytest.fixture(scope="class")
    def service(self):
        dataset = make_german_syn(300, seed=4)
        return HypeRService(
            dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
        )

    def test_bitwise_equal_answers_and_result_cache_hit(self, service):
        text = (
            "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = 1000 "
            "OUTPUT AVG(POST(Credit))"
        )
        builder = (
            what_if().use("Credit").when(col("Age") >= 30)
            .update(set_("CreditAmount", 1000)).output(avg("Credit"))
        )
        from_text = service.execute(text)
        hits_before = service.stats()["caches"]["results"]["hits"]
        from_builder = service.execute(builder)
        assert from_builder.value == from_text.value  # bitwise
        # identical fingerprints: the second execution was a result-cache hit
        assert service.stats()["caches"]["results"]["hits"] == hits_before + 1

    def test_estimator_cache_shared_across_parameter_variants(self, service):
        base = (
            what_if().use("Credit").when(col("Age") >= 30)
            .update(set_("CreditAmount", 2000)).output(avg("Credit"))
        )
        fits_before = service.stats()["caches"]["estimators"]["misses"]
        service.execute(base)
        text_variant = (
            "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = 3000 "
            "OUTPUT AVG(POST(Credit))"
        )
        service.execute(text_variant)
        # the parameter variant reused the plan's estimator: no new miss
        assert service.stats()["caches"]["estimators"]["misses"] <= fits_before + 1

    def test_service_accepts_builder_in_batches(self, service):
        builder = (
            what_if().use("Credit").update(set_("Status", 4)).output(avg("Credit"))
        )
        text = "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"
        results = service.execute_many([builder, text])
        assert results[0].value == results[1].value
