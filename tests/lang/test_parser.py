"""Tests for the HypeR SQL-extension parser."""

import pytest

from repro.core.queries import HowToQuery, WhatIfQuery
from repro.core.updates import AddConstant, MultiplyBy, SetTo
from repro.exceptions import QuerySyntaxError
from repro.lang import parse_how_to, parse_query, parse_what_if
from repro.relational import Temporal


FIGURE4_QUERY = """
USE Product (PID, Category, Price, Brand)
    WITH AVG(Review.Sentiment) AS Senti, AVG(Review.Rating) AS Rtng
WHEN Brand = 'Asus'
UPDATE(Price) = 1.1 * PRE(Price)
OUTPUT AVG(POST(Rtng))
FOR PRE(Category) = 'Laptop' AND PRE(Brand) = 'Asus' AND POST(Senti) > 0.5
"""

FIGURE5_QUERY = """
USE Product (PID, Category, Price, Brand, Color)
    WITH AVG(Review.Rating) AS Rtng
WHEN Brand = 'Asus' AND Category = 'Laptop'
HOWTOUPDATE Price, Color
LIMIT 500 <= POST(Price) <= 800 AND L1(PRE(Price), POST(Price)) <= 400
TOMAXIMIZE AVG(POST(Rtng))
FOR (PRE(Category) = 'Laptop' OR PRE(Category) = 'DSLR Camera') AND Brand = 'Asus'
"""


class TestWhatIfParsing:
    def test_figure4_query_structure(self):
        query = parse_what_if(FIGURE4_QUERY)
        assert isinstance(query, WhatIfQuery)
        assert query.use.base_relation == "Product"
        assert [a.name for a in query.use.aggregated] == ["Senti", "Rtng"]
        assert query.update_attributes == ["Price"]
        assert isinstance(query.updates[0].function, MultiplyBy)
        assert query.updates[0].function.factor == pytest.approx(1.1)
        assert query.output_attribute == "Rtng"
        assert query.output_aggregate == "avg"
        assert query.when.attribute_names() == {"Brand"}
        assert "Senti" in query.for_clause.attribute_names()

    def test_minimal_query_defaults(self):
        query = parse_what_if(
            "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit))"
        )
        assert query.use.attributes is None
        assert isinstance(query.updates[0].function, SetTo)
        assert query.updates[0].function.value == 4
        assert query.output_aggregate == "count"

    def test_additive_update(self):
        query = parse_what_if(
            "USE Credit UPDATE(CreditAmount) = 100 + PRE(CreditAmount) OUTPUT AVG(Credit)"
        )
        assert isinstance(query.updates[0].function, AddConstant)
        assert query.updates[0].function.delta == 100

    def test_string_and_boolean_updates(self):
        query = parse_what_if("USE P UPDATE(Color) = 'Red' OUTPUT AVG(Rating)")
        assert query.updates[0].function.value == "Red"
        query = parse_what_if("USE P UPDATE(Active) = TRUE OUTPUT COUNT(Rating)")
        assert query.updates[0].function.value is True

    def test_multiple_updates(self):
        query = parse_what_if(
            "USE P UPDATE(Price) = 500 AND UPDATE(Color) = 'Red' OUTPUT AVG(Rating)"
        )
        assert query.update_attributes == ["Price", "Color"]

    def test_for_clause_with_in_and_not(self):
        query = parse_what_if(
            "USE P UPDATE(Price) = 1 OUTPUT AVG(Rating) "
            "FOR Brand IN ('Asus', 'HP') AND NOT Category = 'Phone'"
        )
        assert {"Brand", "Category"} <= query.for_clause.attribute_names()

    def test_post_marker_in_predicates(self):
        query = parse_what_if(
            "USE P UPDATE(Price) = 1 OUTPUT COUNT(Income) FOR POST(Income) > 50 AND PRE(Age) >= 30"
        )
        refs = query.for_clause.referenced_attributes()
        assert ("Income", Temporal.POST) in refs
        assert ("Age", Temporal.PRE) in refs

    def test_update_must_reference_same_attribute(self):
        with pytest.raises(QuerySyntaxError):
            parse_what_if("USE P UPDATE(Price) = 1.1 * PRE(Cost) OUTPUT AVG(Rating)")

    def test_syntax_errors(self):
        with pytest.raises(QuerySyntaxError):
            parse_what_if("USE P UPDATE(Price) OUTPUT AVG(Rating)")  # missing '='
        with pytest.raises(QuerySyntaxError):
            parse_what_if("UPDATE(Price) = 1 OUTPUT AVG(Rating)")  # missing USE
        with pytest.raises(QuerySyntaxError):
            parse_what_if("USE P UPDATE(Price) = 1 OUTPUT MEDIAN(Rating)")
        with pytest.raises(QuerySyntaxError):
            parse_what_if("USE P UPDATE(Price) = 1 OUTPUT AVG(Rating) garbage trailing")


class TestHowToParsing:
    def test_figure5_query_structure(self):
        query = parse_how_to(FIGURE5_QUERY)
        assert isinstance(query, HowToQuery)
        assert query.update_attributes == ["Price", "Color"]
        assert query.maximize is True
        assert query.objective_attribute == "Rtng"
        assert query.objective_aggregate == "avg"
        limits = {limit.attribute: limit for limit in query.limits}
        assert limits["Price"].lower == 500 or limits["Price"].max_l1 == 400
        range_limits = [l for l in query.limits if l.lower is not None]
        l1_limits = [l for l in query.limits if l.max_l1 is not None]
        assert range_limits[0].lower == 500 and range_limits[0].upper == 800
        assert l1_limits[0].max_l1 == 400

    def test_tominimize(self):
        query = parse_how_to(
            "USE P HOWTOUPDATE Price TOMINIMIZE SUM(POST(Cost))"
        )
        assert query.maximize is False
        assert query.objective_aggregate == "sum"

    def test_in_limit(self):
        query = parse_how_to(
            "USE P HOWTOUPDATE Color LIMIT POST(Color) IN ('Red', 'Black') "
            "TOMAXIMIZE AVG(POST(Rating))"
        )
        assert query.limits[0].allowed_values == ("Red", "Black")

    def test_one_sided_limits(self):
        query = parse_how_to(
            "USE P HOWTOUPDATE Price LIMIT POST(Price) <= 100 AND POST(Price) >= 10 "
            "TOMAXIMIZE AVG(POST(Rating))"
        )
        uppers = [l.upper for l in query.limits if l.upper is not None]
        lowers = [l.lower for l in query.limits if l.lower is not None]
        assert uppers == [100.0] and lowers == [10.0]

    def test_l1_requires_matching_attribute(self):
        with pytest.raises(QuerySyntaxError):
            parse_how_to(
                "USE P HOWTOUPDATE Price LIMIT L1(PRE(Price), POST(Cost)) <= 10 "
                "TOMAXIMIZE AVG(POST(Rating))"
            )

    def test_missing_objective(self):
        with pytest.raises(QuerySyntaxError):
            parse_how_to("USE P HOWTOUPDATE Price LIMIT POST(Price) <= 10")


class TestDispatch:
    def test_parse_query_dispatches(self):
        assert isinstance(parse_query(FIGURE4_QUERY), WhatIfQuery)
        assert isinstance(parse_query(FIGURE5_QUERY), HowToQuery)

    @pytest.mark.parametrize(
        "text",
        [
            "USE Product WHEN Brand = 'tomaximize' "
            "UPDATE(Price) = 2 * PRE(Price) OUTPUT AVG(POST(Rating))",
            "USE Product -- unlike a HowToUpdate query\n"
            "UPDATE(Price) = 2 * PRE(Price) OUTPUT AVG(POST(Rating))",
        ],
        ids=["string-literal", "comment"],
    )
    def test_how_to_words_outside_keywords_keep_a_what_if(self, text):
        query = parse_query(text)
        assert isinstance(query, WhatIfQuery)
        assert query.update_attributes == ["Price"]


#: ``(text, the offending token)``: each semantic check names where it failed
POSITIONED_ERRORS = [
    pytest.param(
        "USE P\nUPDATE(Price) = 1.1 * PRE(Cost) OUTPUT AVG(Rating)", "Cost", id="pre-mismatch"
    ),
    pytest.param(
        "USE P HOWTOUPDATE Price\nLIMIT L1(PRE(Price), POST(Cost)) <= 10 TOMAXIMIZE AVG(POST(R))",
        "Cost",
        id="l1-attribute",
    ),
    pytest.param(
        "USE P HOWTOUPDATE Price\nLIMIT L1(PRE(Price), POST(Price)) >= 10 TOMAXIMIZE AVG(POST(R))",
        ">=",
        id="l1-operator",
    ),
    pytest.param(
        "USE P HOWTOUPDATE Price\nLIMIT 10 >= POST(Price) TOMAXIMIZE AVG(POST(R))",
        ">=",
        id="range-operator",
    ),
    pytest.param(
        "USE P HOWTOUPDATE Price\nLIMIT POST(Price) != 10 TOMAXIMIZE AVG(POST(R))",
        "!=",
        id="unsupported-limit-operator",
    ),
]


@pytest.mark.parametrize("text, offending", POSITIONED_ERRORS)
def test_every_syntax_error_names_the_offending_token(text, offending):
    with pytest.raises(QuerySyntaxError) as raised:
        parse_query(text)
    assert raised.value.position == text.index(offending)
    assert raised.value.line == 2


class TestStableAstIdentity:
    """The contract documented in ``repro.lang.__init__``: parsing is
    deterministic, so expression trees have stable ``canonical()`` keys and
    plan fingerprints survive re-parsing (dashboards re-send the same text)."""

    def test_what_if_clauses_have_stable_canonical_keys(self):
        a = parse_query(FIGURE4_QUERY)
        b = parse_query(FIGURE4_QUERY)
        assert a.when.canonical() == b.when.canonical()
        assert a.for_clause.canonical() == b.for_clause.canonical()
        assert a.for_clause.canonical(literals=False) == b.for_clause.canonical(
            literals=False
        )
        assert a.update_attributes == b.update_attributes

    def test_how_to_clauses_have_stable_canonical_keys(self):
        a = parse_query(FIGURE5_QUERY)
        b = parse_query(FIGURE5_QUERY)
        assert a.when.canonical() == b.when.canonical()
        assert a.for_clause.canonical() == b.for_clause.canonical()
        assert a.limits == b.limits
        assert a.update_attributes == b.update_attributes

    def test_literal_changes_keep_structure(self):
        a = parse_query(FIGURE4_QUERY)
        b = parse_query(FIGURE4_QUERY.replace("1.1 * PRE(Price)", "1.3 * PRE(Price)"))
        assert a.for_clause.canonical(literals=False) == b.for_clause.canonical(
            literals=False
        )
        c = parse_query(FIGURE4_QUERY.replace("POST(Senti) > 0.5", "POST(Senti) > 0.9"))
        assert a.for_clause.canonical(literals=False) == c.for_clause.canonical(
            literals=False
        )
        assert a.for_clause.canonical() != c.for_clause.canonical()
