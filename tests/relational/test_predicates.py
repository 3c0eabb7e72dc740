"""Tests for predicate normalisation (DNF, disjointness, pre/post splitting)."""

import pytest

from repro.exceptions import ExpressionError
from repro.relational import (
    Relation,
    TRUE,
    evaluate_mask,
    evaluate_predicate,
    make_disjoint,
    post,
    pre,
    split_pre_post,
    to_dnf,
)
from repro.relational.expressions import BooleanExpr, Not
from repro.relational.predicates import is_post_only, is_pre_only


@pytest.fixture
def relation():
    return Relation.from_columns(
        "R",
        {"ID": [1, 2, 3], "A": [1.0, 2.0, 3.0], "B": [10.0, 20.0, 30.0]},
        key=("ID",),
    )


class TestEvaluation:
    def test_evaluate_predicate_with_post_row(self):
        predicate = (pre("A") == 1) & (post("A") == 5)
        assert evaluate_predicate(predicate, {"A": 1}, {"A": 5})
        assert not evaluate_predicate(predicate, {"A": 1}, {"A": 1})

    def test_evaluate_mask_pre_only(self, relation):
        mask = evaluate_mask(pre("A") >= 2, relation)
        assert mask.tolist() == [False, True, True]

    def test_evaluate_mask_with_post_relation(self, relation):
        post_rel = relation.with_column("A", [5.0, 5.0, 5.0])
        mask = evaluate_mask(post("A") == 5, relation, post_rel)
        assert mask.tolist() == [True, True, True]

    def test_evaluate_mask_misaligned_post(self, relation):
        with pytest.raises(ExpressionError):
            evaluate_mask(TRUE, relation, relation.head(1))

    def test_true_predicate(self, relation):
        assert evaluate_mask(TRUE, relation).all()


class TestDNF:
    def test_single_atom(self):
        terms = to_dnf(pre("A") == 1)
        assert len(terms) == 1 and len(terms[0]) == 1

    def test_conjunction_stays_single_term(self):
        terms = to_dnf((pre("A") == 1) & (post("B") > 2))
        assert len(terms) == 1 and len(terms[0]) == 2

    def test_disjunction_splits(self):
        terms = to_dnf((pre("A") == 1) | (pre("A") == 2))
        assert len(terms) == 2

    def test_distribution_of_and_over_or(self):
        expr = ((pre("A") == 1) | (pre("A") == 2)) & (post("B") > 5)
        terms = to_dnf(expr)
        assert len(terms) == 2
        assert all(len(term) == 2 for term in terms)

    def test_negation_pushed_to_atoms(self):
        expr = Not((pre("A") == 1) & (pre("B") == 2))
        terms = to_dnf(expr)
        assert len(terms) == 2  # De Morgan: not A or not B

    def test_term_budget(self):
        big = BooleanExpr(
            "and",
            [BooleanExpr("or", [pre(f"A{i}") == 0, pre(f"A{i}") == 1]) for i in range(15)],
        )
        with pytest.raises(ExpressionError, match="budget"):
            to_dnf(big, max_terms=100)


class TestDisjointness:
    def test_make_disjoint_first_match_wins(self):
        d1 = pre("A") >= 1
        d2 = pre("A") >= 2
        disjoint = make_disjoint([d1, d2])
        # Row with A=3 satisfies both originals but only the first rewritten term.
        row = {"A": 3}
        satisfied = [evaluate_predicate(term, row) for term in disjoint]
        assert satisfied == [True, False]

    def test_make_disjoint_preserves_union(self):
        d1 = pre("A") == 1
        d2 = pre("A") == 2
        disjoint = make_disjoint([d1, d2])
        for value in (1, 2, 3):
            original = any(evaluate_predicate(d, {"A": value}) for d in (d1, d2))
            rewritten = any(evaluate_predicate(d, {"A": value}) for d in disjoint)
            assert original == rewritten


class TestSplitPrePost:
    def test_separable_conjunction(self):
        split = split_pre_post([(pre("A") == 1), (post("B") > 2)])
        assert split.is_separable
        assert split.post_attributes == {"B"}

    def test_mixed_atom_detected(self):
        split = split_pre_post([(pre("A") - post("A")) < 2])
        assert not split.is_separable
        assert split.mixed_atoms

    def test_empty_conjunction_is_true(self):
        split = split_pre_post([])
        assert evaluate_predicate(split.pre, {"A": 1})
        assert evaluate_predicate(split.post, {"A": 1})

    def test_pre_only_and_post_only_helpers(self):
        assert is_pre_only(pre("A") == 1)
        assert not is_pre_only(post("A") == 1)
        assert is_post_only(post("A") == 1)
        assert not is_post_only(TRUE)

    def test_full_reconstruction(self):
        atoms = [(pre("A") == 1), (post("B") > 2)]
        split = split_pre_post(atoms)
        assert evaluate_predicate(split.full(), {"A": 1, "B": 0}, {"A": 1, "B": 3})
        assert not evaluate_predicate(split.full(), {"A": 2, "B": 0}, {"A": 2, "B": 3})
