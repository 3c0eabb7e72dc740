"""Random-forest regressor: bagged CART trees with random feature subsets.

Drop-in replacement for the sklearn ``RandomForestRegressor`` the paper uses to
estimate conditional probabilities (Section 5, "Implementation and setup").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EstimationError
from .tree import DecisionTreeRegressor

__all__ = ["RandomForestRegressor"]


@dataclass
class RandomForestRegressor:
    """Ensemble of :class:`DecisionTreeRegressor` fit on bootstrap samples."""

    n_estimators: int = 20
    max_depth: int = 8
    min_samples_split: int = 10
    min_samples_leaf: int = 5
    max_features: str | int | None = "sqrt"
    n_thresholds: int = 16
    random_state: int | None = None
    _trees: list[DecisionTreeRegressor] = field(default_factory=list, repr=False)
    _n_features: int = field(default=0, repr=False)

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        if self.max_features == "all":
            return None
        raise EstimationError(f"unknown max_features setting {self.max_features!r}")

    def fit(self, features: np.ndarray, target: np.ndarray) -> "RandomForestRegressor":
        features = np.asarray(features, dtype=float)
        target = np.asarray(target, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[0] != target.shape[0]:
            raise EstimationError("features and target have mismatched lengths")
        if features.shape[0] == 0:
            raise EstimationError("cannot fit a forest on zero rows")
        if self.n_estimators <= 0:
            raise EstimationError("n_estimators must be positive")
        n_samples, n_features = features.shape
        self._n_features = n_features
        max_features = self._resolve_max_features(n_features)
        rng = np.random.default_rng(self.random_state)
        self._trees = []
        for b in range(self.n_estimators):
            idx = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                n_thresholds=self.n_thresholds,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(features[idx], target[idx])
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise EstimationError("the forest has not been fitted")
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        predictions = np.zeros(features.shape[0])
        for tree in self._trees:
            predictions += tree.predict(features)
        return predictions / len(self._trees)
