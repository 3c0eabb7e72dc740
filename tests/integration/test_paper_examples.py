"""Integration tests mirroring the paper's worked examples and findings.

These are end-to-end runs through the SQL surface, the view builder, the causal
estimator and (for how-to) the IP solver, checking the *qualitative* claims the
paper makes about its running example and its case studies.
"""

import numpy as np
import pytest

from repro import EngineConfig, HypeR, Variant
from repro.core import WhatIfResult


@pytest.fixture(scope="module")
def german_session():
    from repro.datasets import make_german_syn

    dataset = make_german_syn(600, seed=21)
    return dataset, HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))


@pytest.fixture(scope="module")
def amazon_session():
    from repro.datasets import make_amazon_syn

    dataset = make_amazon_syn(250, seed=21)
    return dataset, HypeR(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))


class TestFigure4StyleQuery:
    def test_figure4_query_runs_end_to_end(self, amazon_session):
        _, session = amazon_session
        result = session.execute(
            """
            USE Product (PID, Category, Price, Brand)
                WITH AVG(Review.Sentiment) AS Senti, AVG(Review.Rating) AS Rtng
            WHEN Brand = 'Asus'
            UPDATE(Price) = 1.1 * PRE(Price)
            OUTPUT AVG(POST(Rtng))
            FOR PRE(Category) = 'Laptop' AND PRE(Brand) = 'Asus' AND POST(Senti) > 0.0
            """
        )
        assert isinstance(result, WhatIfResult)
        assert 1.0 <= result.value <= 5.0
        assert result.n_scope_tuples > 0


class TestGermanFindings:
    def test_status_matters_more_than_housing(self, german_session):
        """Figure 8a: the Status min->max gap dwarfs the Housing gap."""
        dataset, session = german_session
        n = len(dataset.database["Credit"])

        def count_good(attribute, value):
            return session.execute(
                f"USE Credit UPDATE({attribute}) = {value} "
                "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
            ).value

        status_gap = count_good("Status", 4) - count_good("Status", 1)
        housing_gap = count_good("Housing", 3) - count_good("Housing", 1)
        assert status_gap > housing_gap
        assert 0 < count_good("Status", 4) <= n

    def test_maximum_status_gives_high_credit_share(self, german_session):
        dataset, session = german_session
        n = len(dataset.database["Credit"])
        good = session.execute(
            "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        ).value
        baseline = float(
            np.asarray(dataset.database["Credit"].column_view("Credit"), dtype=float).sum()
        )
        assert good > baseline  # pushing status up increases the good-credit count
        assert good / n > 0.6

    def test_indep_overstates_or_misses_the_effect(self, german_session):
        """Figure 10a: Indep ignores propagation, so its answer equals the baseline."""
        dataset, session = german_session
        indep = session.independent_baseline()
        query = (
            "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        )
        baseline_count = float(
            np.asarray(dataset.database["Credit"].column_view("Credit"), dtype=float).sum()
        )
        assert indep.execute(query).value == pytest.approx(baseline_count)
        assert session.execute(query).value > baseline_count

    def test_nb_variant_agrees_directionally(self, german_session):
        _, session = german_session
        nb = session.no_background()
        high = nb.execute(
            "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        ).value
        low = nb.execute(
            "USE Credit UPDATE(Status) = 1 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
        ).value
        assert high > low


class TestGermanHowToCaseStudy:
    def test_status_is_among_the_chosen_updates(self, german_session):
        """Sec 5.4: status (+housing) updates suffice to lift the credit share."""
        _, session = german_session
        result = session.execute(
            "USE Credit HOWTOUPDATE Status, Housing, Savings "
            "LIMIT 1 <= POST(Status) <= 4 AND 1 <= POST(Housing) <= 3 AND 1 <= POST(Savings) <= 5 "
            "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
        )
        assert result.objective_value >= result.baseline_value
        assert "Status" in result.changed_attributes


class TestAmazonFindings:
    def test_lower_prices_raise_share_of_highly_rated_products(self, amazon_session):
        """Sec 5.3 (Amazon): cutting laptop prices raises the share of rating > 4."""
        _, session = amazon_session
        high_price = session.execute(
            "USE Product WITH AVG(Review.Rating) AS Rtng "
            "WHEN Category = 'Laptop' UPDATE(Price) = 1.4 * PRE(Price) "
            "OUTPUT COUNT(POST(Rtng)) FOR PRE(Category) = 'Laptop' AND POST(Rtng) > 3.5"
        ).value
        low_price = session.execute(
            "USE Product WITH AVG(Review.Rating) AS Rtng "
            "WHEN Category = 'Laptop' UPDATE(Price) = 0.6 * PRE(Price) "
            "OUTPUT COUNT(POST(Rtng)) FOR PRE(Category) = 'Laptop' AND POST(Rtng) > 3.5"
        ).value
        assert low_price > high_price

    def test_how_to_price_recommendation_stays_within_limits(self, amazon_session):
        _, session = amazon_session
        result = session.execute(
            "USE Product WITH AVG(Review.Rating) AS Rtng "
            "WHEN Brand = 'Asus' AND Category = 'Laptop' "
            "HOWTOUPDATE Price LIMIT 100 <= POST(Price) <= 900 "
            "TOMAXIMIZE AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'"
        )
        if result.recommended_updates:
            chosen = result.recommended_updates[0].function
            if hasattr(chosen, "value"):
                assert 100 <= float(chosen.value) <= 900


class TestStudentCaseStudy:
    def test_attendance_is_best_single_update(self, small_student):
        """Sec 5.4: with a one-attribute budget, raising attendance helps grades most."""
        session = HypeR(
            small_student.database, small_student.causal_dag, EngineConfig(regressor="linear")
        )
        from repro import HowToQuery, LimitConstraint

        query = HowToQuery(
            use=small_student.default_use,
            update_attributes=["Attendance", "Discussion", "Announcement", "HandRaised"],
            objective_attribute="Grade",
            objective_aggregate="avg",
            limits=[
                LimitConstraint("Attendance", lower=0, upper=100),
                LimitConstraint("Discussion", lower=0, upper=100),
                LimitConstraint("Announcement", lower=0, upper=100),
                LimitConstraint("HandRaised", lower=0, upper=100),
            ],
            max_updates=1,
            candidate_buckets=4,
            candidate_multipliers=(),
        )
        result = session.how_to(query)
        assert result.changed_attributes == ["Attendance"]
        assert result.objective_value > result.baseline_value
