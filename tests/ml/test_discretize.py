"""Tests for bucketization."""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.ml import Discretizer, equal_depth_edges, equal_width_edges


class TestEdges:
    def test_equal_width(self):
        edges = equal_width_edges([0.0, 10.0], 5)
        assert edges.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_equal_width_constant_column(self):
        edges = equal_width_edges([3.0, 3.0], 2)
        assert edges[0] == 3.0 and edges[-1] > 3.0

    def test_equal_depth_balances_counts(self):
        values = list(np.concatenate([np.zeros(50), np.linspace(1, 10, 50)]))
        edges = equal_depth_edges(values, 4)
        discretizer = Discretizer(4, strategy="depth")
        discretizer.edges = edges
        buckets = discretizer.transform(values)
        counts = np.bincount(buckets, minlength=4)
        assert counts.max() - counts.min() <= len(values) // 2

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            equal_width_edges([], 3)
        with pytest.raises(EstimationError):
            equal_width_edges([1.0], 0)
        with pytest.raises(EstimationError):
            equal_depth_edges([], 3)


class TestDiscretizer:
    def test_fit_transform(self):
        disc = Discretizer(4).fit([0.0, 4.0, 8.0])
        buckets = disc.transform([0.5, 3.0, 7.9])
        assert buckets.tolist() == [0, 1, 3]
        centers = disc.bucket_centers()
        assert len(centers) == 4

    def test_out_of_range_values_clipped(self):
        disc = Discretizer(3).fit([0.0, 3.0])
        assert disc.transform([-5.0, 99.0]).tolist() == [0, 2]

    def test_bucket_bounds(self):
        disc = Discretizer(2).fit([0.0, 10.0])
        assert disc.edges.tolist() == [0.0, 5.0, 10.0]
        assert disc.transform([4.9, 5.0]).tolist() == [0, 1]
        with pytest.raises(EstimationError):
            Discretizer(2).transform([1.0])

    def test_unknown_strategy(self):
        with pytest.raises(EstimationError):
            Discretizer(3, strategy="magic").fit([1.0, 2.0])

    def test_unfitted_raises(self):
        with pytest.raises(EstimationError):
            Discretizer(3).transform([1.0])
