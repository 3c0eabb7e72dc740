"""Linear and ridge regression (closed-form, numpy only).

A light-weight alternative to the random forest for the conditional-expectation
estimates; also used as the linearised surrogate objective when the how-to IP
needs a linear expression of the candidate updates (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EstimationError

__all__ = ["GramFactor", "LinearRegression", "RidgeRegression"]

#: Eigenvalues of the scaled Gram matrix below this fraction of the largest are
#: cut as rank deficiency: with unit-length columns, collinear directions come
#: out at rounding level (~1e-16) and the designs' real ones stay above 1e-4.
_RANK_CUT = 1e-11


class GramFactor:
    """The ``p x p`` matrix that turns ``X.T @ y`` into least-squares coefficients.

    Built once per design ``X``: the Gram matrix ``X.T @ X`` (ridge: ``alpha``
    on its diagonal) is scaled to a unit diagonal, eigendecomposed and inverted
    on the eigenvectors above :data:`_RANK_CUT` only — a one-hot block beside
    the intercept is rank-deficient by construction, so Cholesky would not do.
    The coefficients are *a* least-squares solution (minimum norm in the scaled
    coordinates); their predictions are the least-squares predictions.
    """

    __slots__ = ("matrix",)

    def __init__(self, design: np.ndarray, alpha: float = 0.0) -> None:
        gram = design.T @ design
        if alpha:
            penalty = np.full(gram.shape[0], float(alpha))
            penalty[0] = 0.0  # do not shrink the intercept
            gram[np.diag_indices_from(gram)] += penalty
        scale = np.sqrt(np.diagonal(gram))
        scale[scale == 0.0] = 1.0
        unscale = 1.0 / np.outer(scale, scale)
        values, vectors = np.linalg.eigh(gram * unscale)
        kept = values > _RANK_CUT * values[-1]
        vectors = vectors[:, kept]
        self.matrix = ((vectors / values[kept]) @ vectors.T) * unscale

    def solve(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.matrix @ (design.T @ target)


@dataclass
class LinearRegression:
    """Ordinary least squares with an intercept term."""

    coefficients: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    intercept: float = 0.0
    _fitted: bool = field(default=False, repr=False)

    def _design(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        return np.hstack([np.ones((features.shape[0], 1)), features])

    def fit(self, features: np.ndarray, target: np.ndarray) -> "LinearRegression":
        return self.fit_design(self._design(features), target)

    def factorise(self, design: np.ndarray) -> GramFactor:
        """The solver state of ``design``, shared by every target fitted on it."""
        return GramFactor(design)

    def fit_design(
        self, design: np.ndarray, target: np.ndarray, factor: GramFactor | None = None
    ) -> "LinearRegression":
        """Fit on the matrix the solver sees: ``features`` behind the ones column.

        Callers that fit many targets over the same rows (an estimator's
        regressors) build that matrix and its ``factor`` once and pass them to
        each fit; without a factor the fit builds its own.
        """
        target = np.asarray(target, dtype=float)
        if design.shape[0] != target.shape[0]:
            raise EstimationError(
                f"feature rows ({design.shape[0]}) do not match targets ({target.shape[0]})"
            )
        if design.shape[0] == 0:
            raise EstimationError("cannot fit a regression on zero rows")
        if factor is None:
            factor = self.factorise(design)
        solution = factor.solve(design, target)
        self.intercept = float(solution[0])
        self.coefficients = solution[1:]
        self._fitted = True
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise EstimationError("the regression has not been fitted")
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[1] != self.coefficients.shape[0]:
            raise EstimationError(
                f"expected {self.coefficients.shape[0]} features, got {features.shape[1]}"
            )
        # Row-stable dot product: einsum accumulates each row independently in
        # a fixed order, so predicting any subset of rows is bitwise identical
        # to slicing a full-matrix prediction.  BLAS gemv (``features @ coef``)
        # does not guarantee this, and the shard-merge protocol
        # (:mod:`repro.shard.merge`) relies on per-row reproducibility.
        return np.einsum("ij,j->i", features, self.coefficients) + self.intercept

    def add_block(self, partial: np.ndarray | float, block: np.ndarray, offset: int) -> np.ndarray:
        """``partial`` plus the terms of the feature columns ``block`` starting at ``offset``.

        A prediction assembled block by block — the intercept, then each
        block's terms — lets a caller keep the partial sum of the columns that
        do not change between its calls.  Row-stable like :meth:`predict`:
        an elementwise product for one column, the same einsum for several.
        A ``(k, rows, width)`` block holds k variants of the rows, against
        which a ``(rows,)`` partial broadcasts; ``partial`` is only read.
        """
        width = block.shape[-1]
        if width == 1:
            terms = block[..., 0] * self.coefficients[offset]
        else:
            terms = np.einsum("...j,j->...", block, self.coefficients[offset : offset + width])
        terms += partial
        return terms


@dataclass
class RidgeRegression(LinearRegression):
    """L2-regularised least squares (stabler with one-hot encoded categoricals)."""

    alpha: float = 1.0

    def factorise(self, design: np.ndarray) -> GramFactor:
        if self.alpha < 0:
            raise EstimationError("ridge penalty must be non-negative")
        return GramFactor(design, self.alpha)
