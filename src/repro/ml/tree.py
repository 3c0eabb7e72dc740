"""CART regression trees (variance-reduction splitting), numpy only.

This is the base learner of the random-forest regressor HypeR uses to estimate
conditional probabilities / expectations (the paper uses sklearn's
``RandomForestRegressor``; Section 5 "Implementation and setup").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EstimationError

__all__ = ["DecisionTreeRegressor"]


@dataclass
class DecisionTreeRegressor:
    """Regression tree minimising within-node variance.

    Parameters mirror the common sklearn knobs: ``max_depth``,
    ``min_samples_split``, ``min_samples_leaf``, ``max_features`` (number of
    features considered per split — used by the random forest), and
    ``n_thresholds`` limiting candidate split points per feature (quantile
    candidates), which keeps training linear-ish in the sample count.
    """

    max_depth: int = 8
    min_samples_split: int = 10
    min_samples_leaf: int = 5
    max_features: int | None = None
    n_thresholds: int = 16
    random_state: int | None = None
    #: the fitted tree as five parallel arrays, one entry per node in preorder
    #: (node 0 is the root); a leaf has ``feature == -1`` and no children
    _feature: np.ndarray | None = field(default=None, repr=False)
    _threshold: np.ndarray | None = field(default=None, repr=False)
    _left: np.ndarray | None = field(default=None, repr=False)
    _right: np.ndarray | None = field(default=None, repr=False)
    _value: np.ndarray | None = field(default=None, repr=False)
    _n_features: int = field(default=0, repr=False)

    def fit(self, features: np.ndarray, target: np.ndarray) -> "DecisionTreeRegressor":
        features = np.asarray(features, dtype=float)
        target = np.asarray(target, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[0] != target.shape[0]:
            raise EstimationError("features and target have mismatched lengths")
        if features.shape[0] == 0:
            raise EstimationError("cannot fit a tree on zero rows")
        self._n_features = features.shape[1]
        rng = np.random.default_rng(self.random_state)
        nodes: list[tuple[int, float, int, int, float]] = []
        self._build(features, target, 0, rng, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self._feature = np.asarray(feature, dtype=np.intp)
        self._threshold = np.asarray(threshold, dtype=float)
        self._left = np.asarray(left, dtype=np.intp)
        self._right = np.asarray(right, dtype=np.intp)
        self._value = np.asarray(value, dtype=float)
        return self

    # -- tree construction -----------------------------------------------------------

    def _build(
        self,
        features: np.ndarray,
        target: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        nodes: list[tuple[int, float, int, int, float]],
    ) -> int:
        """Grow the subtree over these rows into ``nodes`` (preorder); return its index."""
        index = len(nodes)
        node_value = float(target.mean())
        nodes.append((-1, 0.0, -1, -1, node_value))
        n_samples = target.shape[0]
        if (
            depth >= self.max_depth
            or n_samples < self.min_samples_split
            or np.isclose(target.var(), 0.0)
        ):
            return index

        best = self._best_split(features, target, rng)
        if best is None:
            return index
        feature, threshold, left_mask = best
        right_mask = ~left_mask
        left = self._build(features[left_mask], target[left_mask], depth + 1, rng, nodes)
        right = self._build(features[right_mask], target[right_mask], depth + 1, rng, nodes)
        nodes[index] = (feature, threshold, left, right, node_value)
        return index

    def _candidate_features(self, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None or self.max_features >= self._n_features:
            return np.arange(self._n_features)
        k = max(1, int(self.max_features))
        return rng.choice(self._n_features, size=k, replace=False)

    def _best_split(
        self, features: np.ndarray, target: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, np.ndarray] | None:
        n_samples = target.shape[0]
        total_sum = target.sum()
        best_gain = 1e-12
        best: tuple[int, float, np.ndarray] | None = None
        for feature in self._candidate_features(rng):
            column = features[:, feature]
            finite = column[np.isfinite(column)]
            if finite.size == 0:
                continue
            unique = np.unique(finite)
            if unique.size < 2:
                continue
            if unique.size > self.n_thresholds:
                quantiles = np.linspace(0, 1, self.n_thresholds + 2)[1:-1]
                thresholds = np.unique(np.quantile(finite, quantiles))
            else:
                thresholds = (unique[:-1] + unique[1:]) / 2.0
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                left_sum = target[left_mask].sum()
                right_sum = total_sum - left_sum
                # Variance reduction expressed through sums of squares:
                gain = (left_sum**2) / n_left + (right_sum**2) / n_right - (total_sum**2) / n_samples
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask.copy())
        return best

    # -- prediction ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._feature is None:
            raise EstimationError("the tree has not been fitted")
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[1] != self._n_features:
            raise EstimationError(
                f"expected {self._n_features} features, got {features.shape[1]}"
            )
        # All rows descend together, one level per step (at most ``max_depth``
        # steps); ``rows`` are those still at an internal node.  A NaN feature
        # compares false and goes right.
        node = np.zeros(features.shape[0], dtype=np.intp)
        rows = np.flatnonzero(self._feature[node] >= 0)
        while rows.size:
            at = node[rows]
            goes_left = features[rows, self._feature[at]] <= self._threshold[at]
            node[rows] = np.where(goes_left, self._left[at], self._right[at])
            rows = rows[self._feature[node[rows]] >= 0]
        return self._value[node]

    def depth(self) -> int:
        """Actual depth of the fitted tree (useful in tests)."""
        if self._feature is None:
            raise EstimationError("the tree has not been fitted")
        depth = 0
        level = np.zeros(1, dtype=np.intp)
        while True:
            internal = level[self._feature[level] >= 0]
            if not internal.size:
                return depth
            level = np.concatenate([self._left[internal], self._right[internal]])
            depth += 1
