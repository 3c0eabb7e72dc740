"""Linear and ridge regression (closed-form, numpy only).

A light-weight alternative to the random forest for the conditional-expectation
estimates; also used as the linearised surrogate objective when the how-to IP
needs a linear expression of the candidate updates (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from ..exceptions import EstimationError

__all__ = ["GramFactor", "LinearRegression", "RidgeRegression", "gram_matrix"]

#: Eigenvalues of the scaled Gram matrix below this fraction of the largest are
#: cut as rank deficiency: with unit-length columns, collinear directions come
#: out at rounding level (~1e-16) and the designs' real ones stay above 1e-4.
_RANK_CUT = 1e-11


#: a named ``(rows, width)`` block of a design's columns, each column contiguous
Block = tuple[Hashable, np.ndarray]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x . y`` in NumPy's own loop: the same bits wherever the vectors sit, in either
    order, and no BLAS call (its threads cost milliseconds on a busy host)."""
    return np.einsum("i,i->", x, y)


def _blocks(design: np.ndarray | Sequence[Block]) -> Sequence[Block]:
    """A design matrix as one block per column (blocks pass through)."""
    if not isinstance(design, np.ndarray):
        return design
    return [(j, design[:, j : j + 1]) for j in range(design.shape[1])]


def gram_matrix(blocks: Sequence[Block], memo: Callable | None = None) -> np.ndarray:
    """``X.T @ X`` for the design ``X`` the column ``blocks`` make up side by side.

    Every entry is one dot product of two columns: bitwise the same however the
    columns are grouped or placed.  ``memo(pair, build)`` may serve ``X_a.T @ X_b``
    for the blocks named by ``pair`` (sorted) from an earlier design, so a refit
    after one block changed computes that block's row only.
    """
    columns = [block[:, j] for _, block in blocks for j in range(block.shape[1])]
    gram = np.empty((len(columns), len(columns)))
    if memo is None:  # the same dots, straight into place
        for r, x in enumerate(columns):
            for c in range(r, len(columns)):
                gram[r, c] = gram[c, r] = _dot(x, columns[c])
        return gram
    bounds = np.cumsum([0, *(block.shape[1] for _, block in blocks)])
    spans = [columns[bounds[b] : bounds[b + 1]] for b in range(len(blocks))]
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            a, b = (j, i) if blocks[j][0] < blocks[i][0] else (i, j)
            product = memo(
                (blocks[a][0], blocks[b][0]),
                lambda a=a, b=b: np.array([[_dot(x, y) for y in spans[b]] for x in spans[a]]),
            )
            product = product if a == i else product.T
            rows, cols = slice(bounds[i], bounds[i + 1]), slice(bounds[j], bounds[j + 1])
            gram[rows, cols] = product
            gram[cols, rows] = product.T
    return gram


class GramFactor:
    """The ``p x p`` matrix that turns ``X.T @ y`` into least-squares coefficients.

    Built once per design ``X``: the Gram matrix ``X.T @ X`` (:func:`gram_matrix`;
    ridge: ``alpha`` on its diagonal) is scaled to a unit diagonal, eigendecomposed
    and inverted on the eigenvectors above :data:`_RANK_CUT` only — a one-hot block
    beside the intercept is rank-deficient by construction, so Cholesky would not do.
    The coefficients are *a* least-squares solution (minimum norm in the scaled
    coordinates); their predictions are the least-squares predictions.
    """

    __slots__ = ("matrix",)

    def __init__(self, blocks: Sequence[Block], alpha: float = 0.0, memo=None) -> None:
        gram = gram_matrix(blocks, memo)
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

    def solve(self, blocks: Sequence[Block], target: np.ndarray, memo=None) -> np.ndarray:
        """The coefficients for ``target``: ``X.T @ target`` is one dot per column, and
        ``memo(name, build)`` may serve a block's."""
        def products(block: np.ndarray) -> Callable[[], np.ndarray]:
            return lambda: np.array([_dot(column, target) for column in block.T])

        parts = [products(b)() if memo is None else memo(n, products(b)) for n, b in blocks]
        return self.matrix @ np.concatenate(parts)


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

    def factorise(self, design: np.ndarray | Sequence[Block], memo=None) -> GramFactor:
        """The solver state of ``design``, shared by every target fitted on it."""
        return GramFactor(_blocks(design), 0.0, memo)

    def fit_design(
        self, design: np.ndarray | Sequence[Block], target: np.ndarray, factor=None, memo=None
    ) -> "LinearRegression":
        """Fit on the matrix the solver sees: ``features`` behind the ones column.

        ``design`` may be given as its column blocks, the ones first: the solver
        reads one column at a time.  Callers that fit many targets over the same
        rows (an estimator's regressors) build the blocks and their ``factor``
        once and pass them to each fit; without a factor the fit builds its own.
        """
        blocks = _blocks(design)
        target = np.asarray(target, dtype=float)
        rows = blocks[0][1].shape[0]
        if rows != target.shape[0]:
            raise EstimationError(
                f"feature rows ({rows}) do not match targets ({target.shape[0]})"
            )
        if rows == 0:
            raise EstimationError("cannot fit a regression on zero rows")
        if factor is None:
            factor = self.factorise(blocks)
        solution = factor.solve(blocks, target, memo)
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

    def add_block(
        self, partial: np.ndarray | float, block: np.ndarray, offset: int, out=None
    ) -> np.ndarray:
        """``partial`` plus the terms of the feature columns ``block`` starting at ``offset``.

        A prediction assembled block by block — the intercept, then each
        block's terms — lets a caller keep the partial sum of the columns that
        do not change between its calls.  Row-stable like :meth:`predict`:
        an elementwise product for one column, the same einsum for several.
        A ``(k, rows, width)`` block holds k variants of the rows, against
        which a ``(rows,)`` partial broadcasts; ``partial`` is only read.  The
        sum goes to ``out`` if given (not ``partial``), else to a new array.
        """
        width = block.shape[-1]
        if width == 1:
            terms = np.multiply(block[..., 0], self.coefficients[offset], out=out)
        else:
            coefficients = self.coefficients[offset : offset + width]
            terms = np.einsum("...j,j->...", block, coefficients, out=out)
        terms += partial
        return terms


@dataclass
class RidgeRegression(LinearRegression):
    """L2-regularised least squares (stabler with one-hot encoded categoricals)."""

    alpha: float = 1.0

    def factorise(self, design: np.ndarray | Sequence[Block], memo=None) -> GramFactor:
        if self.alpha < 0:
            raise EstimationError("ridge penalty must be non-negative")
        return GramFactor(_blocks(design), self.alpha, memo)
