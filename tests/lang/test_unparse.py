"""Round-trip property tests: ``parse(unparse(q))`` is AST- and fingerprint-equal.

Two query objects are *AST-equal* when every clause matches under the stable
:meth:`~repro.relational.expressions.Expr.canonical` identity (plain ``==``
on expression trees is overloaded to build comparison nodes, so equality must
go through canonical keys).  Fingerprint equality is checked through
:func:`repro.service.fingerprint.fingerprint_query` — the key the service
caches share.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import EngineConfig
from repro.core.queries import HowToQuery, LimitConstraint, WhatIfQuery
from repro.core.updates import AddConstant, AttributeUpdate, SetTo, UpdateFunction
from repro.datasets import make_german_syn, make_student_syn
from repro.exceptions import QuerySyntaxError, UnparseError
from repro.lang import parse_query, unparse
from repro.relational.expressions import Arithmetic, col, lit, pre
from repro.service.fingerprint import fingerprint_query, update_key, use_key
from repro.workloads import WorkloadGenerator
from tests.core.oracles import what_if_template_batch

CONFIG = EngineConfig(regressor="linear")

#: text queries covering every clause and literal form of the grammar
TEXT_QUERIES = [
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
    "USE Credit (Status, Credit, Age) UPDATE(Status) = 2 OUTPUT SUM(POST(Credit))",
    "USE Product WITH AVG(Review.Rating) AS Rtng WHEN Brand = 'Asus' "
    "UPDATE(Price) = 1.1 * PRE(Price) OUTPUT AVG(POST(Rtng)) "
    "FOR PRE(Category) = 'Laptop'",
    "USE Credit WHEN Age >= 30 AND Housing = 'own' "
    "UPDATE(CreditAmount) = -200 + PRE(CreditAmount) OUTPUT SUM(POST(Risk))",
    "USE Credit WHEN (Age > 30 OR Housing = 'own') AND NOT Status IN (1, 2) "
    "UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Status) = 4 AND UPDATE(Duration) = 0.5 * PRE(Duration) "
    "OUTPUT AVG(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) < 40",
    "USE Credit WHEN Age > -5 UPDATE(Status) = -3 OUTPUT AVG(POST(Credit))",
    "USE Credit WHEN NOT (Age < 20 OR Age > 60) UPDATE(Status) = 1 "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Housing) = 'rent' OUTPUT AVG(POST(Credit)) "
    "FOR POST(Credit) = 1 OR PRE(Age) >= 50",
    "USE Credit HOWTOUPDATE CreditAmount TOMAXIMIZE AVG(POST(Risk))",
    "USE Credit HOWTOUPDATE CreditAmount "
    "LIMIT 100 <= POST(CreditAmount) <= 5000 AND "
    "L1(PRE(CreditAmount), POST(CreditAmount)) <= 300 "
    "TOMAXIMIZE AVG(POST(Risk)) FOR PRE(Age) > 25",
    "USE Credit HOWTOUPDATE Duration, CreditAmount "
    "LIMIT POST(Duration) IN (6, 12, 24) TOMINIMIZE SUM(POST(Risk))",
    "USE Credit WHEN Age >= 35 HOWTOUPDATE Duration "
    "LIMIT POST(Duration) >= 6 AND POST(Duration) <= 48 "
    "TOMAXIMIZE COUNT(POST(Credit))",
]


def canonical_clauses(query) -> tuple:
    """The full AST identity of a query as nested plain tuples."""
    common = (
        use_key(query.use),
        query.when.canonical(),
        query.for_clause.canonical(),
    )
    if isinstance(query, WhatIfQuery):
        return (
            "what-if",
            *common,
            update_key(query.updates),
            query.output_attribute,
            query.output_aggregate,
        )
    return (
        "how-to",
        *common,
        tuple(query.update_attributes),
        query.objective_attribute,
        query.objective_aggregate,
        query.maximize,
        tuple(query.limits),
        query.max_updates,
        tuple(query.candidate_multipliers),
        query.candidate_buckets,
    )


def assert_round_trips(query) -> None:
    text = unparse(query)
    reparsed = parse_query(text)
    assert canonical_clauses(reparsed) == canonical_clauses(query), text
    assert fingerprint_query(reparsed, CONFIG) == fingerprint_query(query, CONFIG), text
    # idempotence: unparse is a fixed point after one round
    assert unparse(reparsed) == text


class TestTextRoundTrip:
    @pytest.mark.parametrize("text", TEXT_QUERIES)
    def test_parse_unparse_parse(self, text):
        assert_round_trips(parse_query(text))

    @pytest.mark.parametrize("text", TEXT_QUERIES)
    def test_reparse_matches_original_parse(self, text):
        original = parse_query(text)
        reparsed = parse_query(unparse(original))
        assert type(reparsed) is type(original)
        assert canonical_clauses(reparsed) == canonical_clauses(original)


class TestWorkloadRoundTrip:
    """Every workload-generator query (programmatic ASTs) round-trips."""

    @pytest.fixture(scope="class")
    def german(self):
        return make_german_syn(200, seed=11)

    @pytest.fixture(scope="class")
    def student(self):
        return make_student_syn(60, seed=7)

    def test_german_what_if_workload(self, german):
        generator = WorkloadGenerator.for_dataset(german, "Credit", seed=3)
        for query in generator.what_if_batch(12, when_selectivity=0.5):
            assert_round_trips(query)

    def test_german_template_workload(self, german):
        generator = WorkloadGenerator.for_dataset(german, "Credit", seed=5)
        for query in what_if_template_batch(generator, 8):
            assert_round_trips(query)

    def test_german_post_condition_workload(self, german):
        generator = WorkloadGenerator.for_dataset(german, "Credit", seed=9)
        for query in generator.what_if_batch(6, with_post_condition=True):
            assert_round_trips(query)

    def test_student_how_to_workload(self, student):
        generator = WorkloadGenerator.for_dataset(student, "Grade", seed=1)
        for query in generator.how_to_batch(6, n_attributes=2):
            # workload how-to queries use a non-default candidate grid, which
            # has no surface syntax: normalise it before round-tripping
            expressible = HowToQuery(
                use=query.use,
                update_attributes=query.update_attributes,
                objective_attribute=query.objective_attribute,
                objective_aggregate=query.objective_aggregate,
                maximize=query.maximize,
                when=query.when,
                for_clause=query.for_clause,
                limits=query.limits,
            )
            assert_round_trips(expressible)


class TestUnparseErrors:
    """Components without surface syntax fail loudly, never silently drift."""

    def base(self) -> WhatIfQuery:
        return parse_query(
            "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"
        )

    def test_arithmetic_predicates_are_rejected(self):
        query = self.base()
        query.when = Arithmetic(col("Age"), "+", lit(1)) > 30
        with pytest.raises(UnparseError):
            unparse(query)

    def test_non_default_candidate_grid_is_rejected(self):
        query = parse_query(
            "USE Credit HOWTOUPDATE CreditAmount TOMAXIMIZE AVG(POST(Risk))"
        )
        query.candidate_buckets = 3
        with pytest.raises(UnparseError, match="candidate_buckets"):
            unparse(query)

    def test_mixed_quote_string_is_rejected(self):
        query = self.base()
        query.when = col("Housing") == "it's \"both\""
        with pytest.raises(UnparseError, match="quote"):
            unparse(query)

    def test_keyword_named_bare_attribute_is_rejected(self):
        query = self.base()
        query.when = col("count") > 3
        with pytest.raises(UnparseError, match="keyword"):
            unparse(query)
        # the PRE(...) spelling works — keywords are legal inside parens
        query.when = pre("count") > 3
        assert "PRE(count)" in unparse(query)


class TestNegativeLiterals:
    """The grammar extension behind unparse: unary minus everywhere numbers go."""

    def test_negative_update_constant(self):
        query = parse_query(
            "USE Credit UPDATE(CreditAmount) = -250.5 + PRE(CreditAmount) "
            "OUTPUT AVG(POST(Credit))"
        )
        assert query.updates[0].function.delta == -250.5

    def test_negative_comparison_literal(self):
        query = parse_query(
            "USE Credit WHEN Age > -1 UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"
        )
        assert query.when.canonical() == (col("Age") > -1).canonical()
        assert_round_trips(query)

    def test_negative_in_set_and_limits(self):
        query = parse_query(
            "USE Credit HOWTOUPDATE CreditAmount "
            "LIMIT -100 <= POST(CreditAmount) <= -10 AND POST(CreditAmount) IN (-1, -2.5) "
            "TOMAXIMIZE AVG(POST(Risk))"
        )
        assert query.limits[0].lower == -100 and query.limits[0].upper == -10
        assert query.limits[1].allowed_values == (-1, -2.5)
        assert_round_trips(query)

    def test_minus_still_not_a_comment(self):
        with pytest.raises(QuerySyntaxError):
            parse_query(
                "USE Credit WHEN Age > --5 UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))"
            )


class Clip(UpdateFunction):
    """An update function the query language has no word for."""


class TestEveryRefusal:
    """Each component without a query-text form is refused by name."""

    def base(self) -> WhatIfQuery:
        return parse_query("USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit))")

    @pytest.mark.parametrize(
        "when, message",
        [
            (col("Age") == lit(float("inf")), "non-finite number"),
            (col("Age").isin([object()]), "has no query-text form"),
            (col("2Age") == 1, "not a legal identifier"),
            (col("Age").isin([]), "IN \\(...\\) needs at least one value"),
            (~lit(True), "NOT over"),
            (col("Age"), "no predicate surface syntax"),
        ],
    )
    def test_a_predicate_without_text(self, when, message):
        query = self.base()
        query.when = when
        with pytest.raises(UnparseError, match=message):
            unparse(query)

    def test_null_and_boolean_literals_round_trip(self):
        query = self.base()
        query.for_clause = col("Housing").isin([None, True, False])
        assert "IN (NULL, TRUE, FALSE)" in unparse(query)
        assert unparse(parse_query(unparse(query))) == unparse(query)
        flagged = parse_query("USE Credit UPDATE(Status) = TRUE OUTPUT AVG(POST(Credit))")
        assert "UPDATE(Status) = TRUE" in unparse(flagged)

    @pytest.mark.parametrize(
        "function, message",
        [
            (SetTo(object()), "Update\\(...\\) = .* has no query-text form"),
            (AddConstant(True), "expected a number, got boolean"),
            (Clip(), "update function Clip has no query-text form"),
        ],
    )
    def test_an_update_without_text(self, function, message):
        query = self.base()
        query.updates = [AttributeUpdate("Status", function)]
        with pytest.raises(UnparseError, match=message):
            unparse(query)

    def test_a_use_with_explicit_joins_an_unknown_aggregate_or_object(self):
        query = self.base()
        query.use = replace(query.use, joins={"Other": [("A", "B")]})
        with pytest.raises(UnparseError, match="explicit UseSpec.joins"):
            unparse(query)
        query = self.base()
        query.output_aggregate = "max"
        with pytest.raises(UnparseError, match="aggregate 'max' has no query-text form"):
            unparse(query)
        with pytest.raises(UnparseError, match="cannot unparse object of type str"):
            unparse("USE Credit")

    @pytest.mark.parametrize(
        "limit, message",
        [
            (LimitConstraint("Status", lower=1.0, max_l1=2.0), "mixes range/membership/L1"),
            (LimitConstraint("Status", allowed_values=()), "needs at least one value"),
        ],
    )
    def test_a_limit_without_text(self, limit, message):
        query = parse_query(
            "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
            "TOMAXIMIZE COUNT(POST(Credit))"
        )
        query.limits = [limit]
        with pytest.raises(UnparseError, match=message):
            unparse(query)
