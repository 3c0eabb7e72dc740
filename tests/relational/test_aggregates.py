"""Tests for decomposable aggregates (Definition 6)."""

import pytest

from repro.exceptions import ExpressionError
from repro.relational import AvgAggregate, CountAggregate, SumAggregate, get_aggregate


class TestLookup:
    def test_lookup_by_name_case_insensitive(self):
        assert get_aggregate("SUM").name == "sum"
        assert get_aggregate("Avg").name == "avg"
        assert get_aggregate("count").name == "count"
        assert get_aggregate("mean").name == "avg"

    def test_pass_through_instance(self):
        aggregate = SumAggregate()
        assert get_aggregate(aggregate) is aggregate

    def test_unknown_raises(self):
        with pytest.raises(ExpressionError):
            get_aggregate("median")


class TestEvaluation:
    def test_sum(self):
        assert SumAggregate().evaluate([1, 2, 3]) == 6.0
        assert SumAggregate().evaluate([]) == 0.0

    def test_count(self):
        assert CountAggregate().evaluate(["a", "b"]) == 2.0
        assert CountAggregate().evaluate([]) == 0.0

    def test_avg(self):
        assert AvgAggregate().evaluate([2, 4, 6]) == 4.0
        assert AvgAggregate().evaluate([]) == 0.0

    def test_callable_interface(self):
        assert SumAggregate()(iter([1, 1, 1])) == 3.0


class TestDecomposition:
    @pytest.mark.parametrize("name", ["sum", "count", "avg"])
    def test_partial_plus_combine_matches_direct(self, name):
        aggregate = get_aggregate(name)
        blocks = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        flat = [v for block in blocks for v in block]
        total = len(flat)
        composed = aggregate.combine(aggregate.partial(b, total) for b in blocks)
        assert composed == pytest.approx(aggregate.evaluate(flat))

    def test_avg_partial_uses_global_size(self):
        aggregate = AvgAggregate()
        assert aggregate.partial([10.0], total_size=5) == pytest.approx(2.0)
        assert aggregate.partial([10.0], total_size=0) == 0.0

    def test_needs_output_value(self):
        assert not CountAggregate().needs_output_value
        assert SumAggregate().needs_output_value
        assert AvgAggregate().needs_output_value

    def test_combiner_linearity_conditions(self):
        """The g of Definition 6 must satisfy scaling and additivity."""
        aggregate = SumAggregate()
        xs = [1.0, 2.0, 3.0]
        ys = [4.0, 5.0, 6.0]
        alpha = 2.5
        assert alpha * aggregate.combine(xs) == pytest.approx(
            aggregate.combine([alpha * x for x in xs])
        )
        assert aggregate.combine(xs) + aggregate.combine(ys) == pytest.approx(
            aggregate.combine([x + y for x, y in zip(xs, ys)])
        )
