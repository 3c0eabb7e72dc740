"""Discretization utilities (equi-width and equi-depth bucketization).

HypeR bucketizes continuous attributes before building the how-to integer
program (Section 4.3) and the discretization experiment (Figure 9) sweeps the
number of buckets.  The paper uses equi-width buckets; equi-depth is provided
as well because it is the natural alternative and is exercised by the ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import EstimationError

__all__ = ["Discretizer", "equal_width_edges", "equal_depth_edges"]


def _as_float_array(values: Sequence[float]) -> np.ndarray:
    """Whole-array pass-through for ndarray input, list conversion otherwise."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.astype(float, copy=False)
    return np.asarray(list(values), dtype=float)


def equal_width_edges(values: Sequence[float], n_buckets: int) -> np.ndarray:
    """Bucket edges splitting ``[min, max]`` into ``n_buckets`` equal-width bins."""
    if n_buckets <= 0:
        raise EstimationError("n_buckets must be positive")
    arr = _as_float_array(values)
    if arr.size == 0:
        raise EstimationError("cannot discretize an empty column")
    low, high = float(arr.min()), float(arr.max())
    if low == high:
        high = low + 1.0
    return np.linspace(low, high, n_buckets + 1)


def equal_depth_edges(values: Sequence[float], n_buckets: int) -> np.ndarray:
    """Bucket edges putting (approximately) equal numbers of values per bin."""
    if n_buckets <= 0:
        raise EstimationError("n_buckets must be positive")
    arr = _as_float_array(values)
    if arr.size == 0:
        raise EstimationError("cannot discretize an empty column")
    quantiles = np.linspace(0, 1, n_buckets + 1)
    edges = np.quantile(arr, quantiles)
    # Guard against duplicate edges when the data has heavy ties.
    for i in range(1, len(edges)):
        if edges[i] <= edges[i - 1]:
            edges[i] = edges[i - 1] + 1e-9
    return edges


@dataclass
class Discretizer:
    """Fitted bucketization of a numeric column.

    ``strategy`` is ``"width"`` (equi-width, the paper's choice) or ``"depth"``
    (equi-depth / quantile buckets).
    """

    n_buckets: int
    strategy: str = "width"
    edges: np.ndarray | None = None

    def fit(self, values: Sequence[float]) -> "Discretizer":
        if self.strategy == "width":
            self.edges = equal_width_edges(values, self.n_buckets)
        elif self.strategy == "depth":
            self.edges = equal_depth_edges(values, self.n_buckets)
        else:
            raise EstimationError(f"unknown discretization strategy {self.strategy!r}")
        return self

    def _require_fitted(self) -> np.ndarray:
        if self.edges is None:
            raise EstimationError("the discretizer has not been fitted")
        return self.edges

    def transform(self, values: Sequence[float]) -> np.ndarray:
        """Bucket index per value (0-based; values outside the range are clipped)."""
        edges = self._require_fitted()
        arr = _as_float_array(values)
        idx = np.searchsorted(edges, arr, side="right") - 1
        return np.clip(idx, 0, self.n_buckets - 1)

    def bucket_centers(self) -> np.ndarray:
        """Representative (mid-point) value per bucket — the candidate update values."""
        edges = self._require_fitted()
        return (edges[:-1] + edges[1:]) / 2.0
