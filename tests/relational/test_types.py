"""Tests for attribute domains."""

import math

import numpy as np
import pytest

from repro.exceptions import DomainError
from repro.relational import (
    BooleanDomain,
    CategoricalDomain,
    IntegerDomain,
    NumericDomain,
    infer_domain,
)


class TestNumericDomain:
    def test_contains_inside_interval(self):
        domain = NumericDomain(0.0, 10.0)
        assert domain.contains(5)
        assert domain.contains(0.0)
        assert domain.contains(10.0)

    def test_rejects_outside_and_non_numeric(self):
        domain = NumericDomain(0.0, 10.0)
        assert not domain.contains(-0.1)
        assert not domain.contains(10.5)
        assert not domain.contains("five")
        assert not domain.contains(None)
        assert not domain.contains(True)
        assert not domain.contains(float("nan"))

    def test_invalid_bounds_raise(self):
        with pytest.raises(DomainError):
            NumericDomain(5.0, 1.0)

    def test_validate_raises_with_attribute_name(self):
        domain = NumericDomain(0.0, 1.0)
        with pytest.raises(DomainError, match="Price"):
            domain.validate(2.0, attribute="Price")

    def test_unbounded_by_default(self):
        domain = NumericDomain()
        assert domain.contains(1e12)
        assert not domain.is_bounded

    def test_values_raises_for_continuous(self):
        with pytest.raises(DomainError):
            NumericDomain(0.0, 1.0).values()

    def test_sample_within_bounds(self):
        domain = NumericDomain(2.0, 3.0)
        samples = domain.sample(np.random.default_rng(0), size=50)
        assert ((samples >= 2.0) & (samples <= 3.0)).all()


class TestIntegerDomain:
    def test_contains_integers_only(self):
        domain = IntegerDomain(1, 5)
        assert domain.contains(3)
        assert domain.contains(3.0)
        assert not domain.contains(3.5)
        assert not domain.contains(6)
        assert not domain.contains(True)

    def test_values_enumerates_range(self):
        assert IntegerDomain(1, 4).values() == [1, 2, 3, 4]

    def test_sample(self):
        samples = IntegerDomain(1, 3).sample(np.random.default_rng(1), size=30)
        assert set(samples.tolist()) <= {1, 2, 3}


class TestCategoricalDomain:
    def test_contains_and_values(self):
        domain = CategoricalDomain(["a", "b", "c"])
        assert domain.contains("a")
        assert not domain.contains("z")
        assert domain.values() == ["a", "b", "c"]
        assert len(domain) == 3

    def test_deduplicates_preserving_order(self):
        domain = CategoricalDomain(["b", "a", "b"])
        assert domain.values() == ["b", "a"]

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            CategoricalDomain([])

    def test_boolean_domain(self):
        domain = BooleanDomain()
        assert domain.contains(True)
        assert domain.contains(False)
        assert not domain.contains("true")


class TestInferDomain:
    def test_integer_column(self):
        domain = infer_domain([1, 2, 3, 4])
        assert isinstance(domain, IntegerDomain)
        assert domain.contains(2)
        # inferred domains are padded so nearby hypothetical values stay legal
        assert domain.contains(6)

    def test_float_column(self):
        domain = infer_domain([0.5, 1.5, 2.5])
        assert isinstance(domain, NumericDomain)
        assert domain.contains(1.0)

    def test_string_column(self):
        domain = infer_domain(["red", "blue", None])
        assert isinstance(domain, CategoricalDomain)
        assert domain.contains("red")

    def test_boolean_column(self):
        assert isinstance(infer_domain([True, False, True]), BooleanDomain)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            infer_domain([None, None])

    def test_constant_column_has_positive_padding(self):
        domain = infer_domain([5.5, 5.5])
        assert domain.contains(5.5)
        assert math.isfinite(domain.low) and math.isfinite(domain.high)
