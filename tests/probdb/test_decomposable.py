"""Tests for decomposed computation over blocks (Proposition 1)."""

import pytest

from repro.exceptions import HypeRError
from repro.probdb import (
    BlockResult,
    check_decomposability,
    combine_block_results,
    decomposed_value,
)
from repro.relational import get_aggregate


def scale_invariance_holds(combiner, values, alpha, *, tolerance=1e-9):
    """Check the ``alpha * g(x) == g(alpha * x)`` condition of Definition 6."""
    if alpha < 0:
        raise HypeRError("the scale-invariance condition is stated for alpha >= 0")
    left = alpha * combiner(list(values))
    right = combiner([alpha * v for v in values])
    return abs(left - right) <= tolerance * max(1.0, abs(left))


class TestDecomposedValue:
    @pytest.mark.parametrize("aggregate", ["sum", "count", "avg"])
    def test_matches_direct_evaluation(self, aggregate):
        blocks = [[1.0, 5.0], [2.0], [3.0, 4.0, 6.0]]
        flat = [v for b in blocks for v in b]
        assert decomposed_value(aggregate, blocks) == pytest.approx(
            get_aggregate(aggregate).evaluate(flat)
        )

    @pytest.mark.parametrize("aggregate", ["sum", "count", "avg"])
    def test_check_decomposability_helper(self, aggregate):
        assert check_decomposability(aggregate, [[1.0, 2.0], [3.0]])

    def test_empty_blocks(self):
        assert decomposed_value("avg", [[], []]) == 0.0
        assert decomposed_value("sum", []) == 0.0

    def test_single_block_is_identity(self):
        assert decomposed_value("avg", [[2.0, 4.0]]) == pytest.approx(3.0)


class TestCombine:
    def test_combine_block_results_sums_partials(self):
        results = [
            BlockResult(block_index=0, partial_value=1.5, tuple_count=3),
            BlockResult(block_index=1, partial_value=2.5, tuple_count=2),
        ]
        assert combine_block_results("sum", results) == pytest.approx(4.0)
        assert combine_block_results("count", results) == pytest.approx(4.0)

    def test_combine_validates_aggregate(self):
        with pytest.raises(Exception):
            combine_block_results("median", [])

    def test_scale_invariance_of_sum_combiner(self):
        assert scale_invariance_holds(sum, [1.0, 2.0, 3.0], alpha=2.0)
        assert scale_invariance_holds(sum, [1.0, 2.0, 3.0], alpha=0.0)
        with pytest.raises(HypeRError):
            scale_invariance_holds(sum, [1.0], alpha=-1.0)
