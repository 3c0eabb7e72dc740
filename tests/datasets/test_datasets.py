"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    available_datasets,
    make_adult_syn,
    make_amazon_syn,
    make_dataset,
    make_german_syn,
    make_student_syn,
)
from repro.exceptions import HypeRError
from tests.relational.oracles import check_referential_integrity


class TestRegistry:
    def test_available_datasets(self):
        assert set(available_datasets()) == {
            "adult-syn",
            "amazon-syn",
            "german-syn",
            "student-syn",
        }

    def test_make_dataset_forwards_kwargs(self):
        ds = make_dataset("german-syn", n_rows=50, seed=1)
        assert len(ds.database["Credit"]) == 50

    def test_unknown_dataset(self):
        with pytest.raises(HypeRError):
            make_dataset("mnist")


class TestGermanSyn:
    def test_reproducible_given_seed(self):
        a = make_german_syn(100, seed=3)
        b = make_german_syn(100, seed=3)
        assert a.database["Credit"].to_dict() == b.database["Credit"].to_dict()

    def test_schema_and_dag_consistent(self, small_german):
        relation = small_german.database["Credit"]
        for node in small_german.causal_dag.nodes:
            assert node in relation.schema
        assert not relation.schema.is_mutable("Age")
        assert relation.schema.is_mutable("Status")

    def test_credit_outcome_is_binary_and_mixed(self, small_german):
        credit = np.asarray(small_german.database["Credit"].column_view("Credit"), dtype=float)
        assert set(np.unique(credit)) <= {0.0, 1.0}
        assert 0.2 < credit.mean() < 0.95

    def test_status_strongly_associated_with_credit(self, small_german):
        """The generator encodes Status as a dominant cause of Credit."""
        relation = small_german.database["Credit"]
        status = np.asarray(relation.column_view("Status"), dtype=float)
        credit = np.asarray(relation.column_view("Credit"), dtype=float)
        high = credit[status >= 3].mean()
        low = credit[status <= 2].mean()
        assert high > low

    def test_continuous_variant(self):
        ds = make_german_syn(60, seed=0, continuous=True)
        status = ds.database["Credit"].column_view("Status")
        assert any(abs(v - round(v)) > 1e-9 for v in np.asarray(status, dtype=float))

    def test_extra_noise_attributes(self):
        ds = make_german_syn(40, seed=0, extra_noise_attributes=3)
        assert "Noise2" in ds.database["Credit"].schema


class TestAdultSyn:
    def test_marital_status_dominates_income(self, small_adult):
        relation = small_adult.database["Adult"]
        marital = np.asarray(relation.column_view("Marital"), dtype=float)
        income = np.asarray(relation.column_view("Income"), dtype=float)
        assert income[marital == 1].mean() > income[marital == 0].mean() + 0.15

    def test_schema_matches_dag(self, small_adult):
        for node in small_adult.causal_dag.nodes:
            assert node in small_adult.database["Adult"].schema


class TestStudentSyn:
    def test_two_relations_with_foreign_key(self, small_student):
        db = small_student.database
        assert set(db.relation_names) == {"Student", "Participation"}
        check_referential_integrity(db)
        assert len(db["Participation"]) == 5 * len(db["Student"])

    def test_view_aggregates_align_with_scm_columns(self, small_student):
        view = small_student.default_use.build(small_student.database)
        assert {"Attendance", "Assignment", "Grade"} <= set(view.attribute_names)
        grades = np.asarray(view.column_view("Grade"), dtype=float)
        assert 0 <= grades.min() and grades.max() <= 100

    def test_attendance_positively_correlates_with_grade(self, small_student):
        view = small_student.default_use.build(small_student.database)
        attendance = np.asarray(view.column_view("Attendance"), dtype=float)
        grade = np.asarray(view.column_view("Grade"), dtype=float)
        assert np.corrcoef(attendance, grade)[0, 1] > 0.3


class TestAmazonSyn:
    def test_two_relations_and_reviews_exist(self, small_amazon):
        db = small_amazon.database
        check_referential_integrity(db)
        assert len(db["Review"]) >= len(db["Product"])

    def test_price_negatively_quality_positively_related_to_rating(self, small_amazon):
        view = small_amazon.default_use.build(small_amazon.database)
        price = np.asarray(view.column_view("Price"), dtype=float)
        quality = np.asarray(view.column_view("Quality"), dtype=float)
        rating = np.asarray(
            [r if r is not None else np.nan for r in view.column_view("Rtng")], dtype=float
        )
        ok = ~np.isnan(rating)
        assert np.corrcoef(quality[ok], rating[ok])[0, 1] > 0.2
        # price is positively driven by quality, so the raw correlation with rating
        # can be weak — but conditioning on quality the partial effect is negative.
        residual_price = price - np.poly1d(np.polyfit(quality, price, 1))(quality)
        assert np.corrcoef(residual_price[ok], rating[ok])[0, 1] < 0.0

    def test_ratings_within_bounds(self, small_amazon):
        ratings = np.asarray(small_amazon.database["Review"].column_view("Rating"), dtype=float)
        assert ratings.min() >= 1 and ratings.max() <= 5

    def test_summary_strings(self, small_amazon, small_german):
        assert "amazon-syn" in small_amazon.summary()
        assert small_german.n_rows == len(small_german.database["Credit"])
