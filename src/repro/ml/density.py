"""Conditional probability / expectation estimators.

Two estimation routes back the computation in Sections 3.3 and A.4:

* :class:`FrequencyTable` — empirical conditional probabilities over discrete
  value combinations, with the *zero-support index* the paper describes: only
  value combinations that actually occur in the data are stored, so iterating
  "over the domain of the backdoor set" touches at most ``n`` combinations.
* :class:`ConditionalMeanRegressor` — a regression function (random forest by
  default, mirroring the paper's implementation) of an outcome on the update
  attribute and the backdoor attributes, used to evaluate post-update
  conditional expectations at counterfactual inputs ``B = f(b)``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import EstimationError
from .encoding import FeatureEncoder
from .forest import RandomForestRegressor
from .linear import Block, GramFactor, LinearRegression, RidgeRegression

__all__ = ["FrequencyTable", "ConditionalMeanRegressor", "make_regressor"]


def _hashable(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass
class FrequencyTable:
    """Empirical joint distribution over a set of discrete columns.

    Stores counts per observed value combination (the zero-support index) and
    answers conditional probability queries ``Pr(target = v | conditions)`` and
    support queries ``observed_values(attribute | conditions)``.
    """

    attributes: tuple[str, ...] = ()
    _counts: Counter = field(default_factory=Counter, repr=False)
    _index: dict = field(default_factory=dict, repr=False)
    _total: int = 0

    @classmethod
    def fit(cls, columns: Mapping[str, Sequence[Any]]) -> "FrequencyTable":
        attributes = tuple(columns)
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise EstimationError("all columns must have the same length")
        n = lengths.pop()
        counts: Counter = Counter()
        index: dict[str, dict[Any, set[int]]] = {a: defaultdict(set) for a in attributes}
        for i in range(n):
            combo = tuple(_hashable(columns[a][i]) for a in attributes)
            counts[combo] += 1
            for a, v in zip(attributes, combo):
                index[a][v].add(i)
        table = cls(attributes=attributes, _counts=counts, _total=n)
        table._index = {a: dict(index[a]) for a in attributes}
        return table

    def __len__(self) -> int:
        return self._total

    def _position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise EstimationError(
                f"attribute {attribute!r} is not part of this frequency table"
            ) from exc

    def _matching(self, conditions: Mapping[str, Any]) -> list[tuple]:
        positions = {self._position(a): _hashable(v) for a, v in conditions.items()}
        return [
            combo
            for combo in self._counts
            if all(combo[pos] == val for pos, val in positions.items())
        ]

    def count(self, conditions: Mapping[str, Any]) -> int:
        return sum(self._counts[c] for c in self._matching(conditions))

    def probability(self, target: Mapping[str, Any], given: Mapping[str, Any] | None = None) -> float:
        """``Pr(target | given)`` with empirical frequencies; 0 when the given has no support."""
        given = dict(given or {})
        overlap = set(target) & set(given)
        if overlap:
            raise EstimationError(f"attributes {sorted(overlap)} appear on both sides")
        denominator = self.count(given) if given else self._total
        if denominator == 0:
            return 0.0
        numerator = self.count({**given, **target})
        return numerator / denominator

    def observed_values(self, attribute: str, given: Mapping[str, Any] | None = None) -> list[Any]:
        """Values of ``attribute`` with non-zero support under ``given`` (zero-support index)."""
        position = self._position(attribute)
        given = dict(given or {})
        values = []
        seen = set()
        for combo in self._matching(given) if given else list(self._counts):
            value = combo[position]
            if value not in seen:
                seen.add(value)
                values.append(value)
        return values


def make_regressor(kind: str = "forest", random_state: int | None = 0, **kwargs):
    """Factory for the regression back-end (``forest`` | ``linear`` | ``ridge``)."""
    kind = kind.lower()
    if kind == "forest":
        return RandomForestRegressor(random_state=random_state, **kwargs)
    if kind == "linear":
        return LinearRegression(**kwargs)
    if kind == "ridge":
        return RidgeRegression(**kwargs)
    raise EstimationError(f"unknown regressor kind {kind!r}")


@dataclass
class ConditionalMeanRegressor:
    """Regression of an outcome on a set of (possibly categorical) attributes.

    ``fit`` consumes raw columns; the encoder handles categorical attributes via
    one-hot encoding.  ``predict_rows`` evaluates the fitted conditional mean at
    arbitrary attribute assignments — including counterfactual values of the
    update attribute that never co-occur with the given covariates in the data,
    which is exactly what Equation (1) needs.  A regressor with no feature
    attributes, or one fitted by :meth:`fit_constant`, has no encoder and no
    model and predicts one value everywhere.
    """

    feature_attributes: tuple[str, ...]
    regressor_kind: str = "forest"
    random_state: int | None = 0
    regressor_params: Mapping[str, Any] = field(default_factory=dict)
    _encoder: FeatureEncoder | None = field(default=None, repr=False)
    _model: Any = field(default=None, repr=False)
    _target_mean: float = 0.0
    #: this regressor's identity inside a caller's memo keys (an ``id()`` could
    #: be reused by a successor while the memo entry is still alive)
    _token: object = field(default_factory=object, repr=False, compare=False)

    def fit(
        self,
        columns: Mapping[str, Sequence[Any]],
        target: Sequence[float],
    ) -> "ConditionalMeanRegressor":
        missing = [a for a in self.feature_attributes if a not in columns]
        if missing:
            raise EstimationError(f"training columns missing attributes {missing}")
        feature_columns = {a: columns[a] for a in self.feature_attributes}
        encoder = FeatureEncoder.fit_columns(feature_columns)
        return self.fit_design(encoder, encoder.design(feature_columns), target)

    def fit_constant(self, value: float) -> "ConditionalMeanRegressor":
        """Predict ``value`` at every row: a target with one value is its own
        conditional mean, so nothing is encoded, factorised or grown."""
        self._target_mean, self._encoder, self._model = value, None, None
        return self

    @property
    def constant(self) -> float | None:
        """The one value this regressor predicts at every row, whatever its
        inputs, or ``None`` when its prediction reads the feature attributes."""
        return self._target_mean if self._encoder is None or self._model is None else None

    def _new_model(self) -> Any:
        return make_regressor(
            self.regressor_kind, random_state=self.random_state, **dict(self.regressor_params)
        )

    def factorise(self, design: np.ndarray | Sequence[Block], memo=None) -> GramFactor | None:
        """The solver state linear / ridge fits over ``design`` share; ``None`` for a forest."""
        model = self._new_model()
        if isinstance(model, LinearRegression):
            return model.factorise(design, memo)
        return None

    def fit_design(
        self,
        encoder: FeatureEncoder,
        design: np.ndarray | Sequence[Block],
        target: Sequence[float],
        factor: GramFactor | None = None,
        memo: Any = None,
    ) -> "ConditionalMeanRegressor":
        """Fit on ``design = encoder.design(training columns)`` (linear / ridge: or
        on its column blocks, unstacked).

        Regressors over the same attributes and training rows (every target
        of one :class:`~repro.core.estimator.PostUpdateEstimator`) share the
        encoder, the design and its ``factor`` (:meth:`factorise`); only the
        target differs from fit to fit.
        """
        target = np.asarray(target, dtype=float)
        self._target_mean = float(target.mean()) if target.size else 0.0
        if not self.feature_attributes:
            self._encoder = None
            self._model = None
            return self
        self._encoder = encoder
        self._model = self._new_model()
        if isinstance(self._model, LinearRegression):
            self._model.fit_design(design, target, factor, memo)
        else:
            self._model.fit(design[:, 1:], target)
        return self

    def predict_rows(self, rows: Sequence[Mapping[str, Any]]) -> np.ndarray:
        return self.predict_at(lambda a: [row.get(a) for row in rows], len(rows))

    def predict_at(
        self,
        column_of: Callable[[str], Sequence[Any]],
        n_rows: int,
        *,
        varying: Mapping[str, np.ndarray] | None = None,
        memo: Callable[[Hashable, Callable[[], np.ndarray]], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Predict at ``n_rows`` rows whose raw values of attribute ``a`` are ``column_of(a)``.

        The one prediction route.  ``varying`` holds the encoded blocks of the
        attributes whose values differ between calls over the same rows (the
        update attributes of Equation 1), so a caller predicting several
        regressors over one encoder encodes them once; whatever is computed
        from the other attributes alone goes through ``memo(key, build)`` when
        a caller that repeats such calls supplies one, and is built on the
        spot otherwise.  ``(k, n_rows, width)`` varying blocks predict k
        variants of the rows at once, ``(k, n_rows)``, over one fixed part.

        Each fixed attribute's encoded block is memoised, ``("block", attribute)``.

        * linear / ridge: ``(intercept + terms of the fixed attributes)``, the
          memoised part, ``+ terms of the varying ones`` — only those are
          encoded per call.  Terms are added one attribute at a time in the
          design's attribute order, fixed before varying, each by a per-row operation
          (:meth:`LinearRegression.add_block`), so any subset of rows predicts
          bitwise what the same rows of a larger set do, and a memoised
          partial sum equals a fresh one.
        * forest: the fixed blocks are stacked once in the design's attribute
          order and the trees read the matrix.
        """
        varying = varying or {}
        # (k, n_rows) for k variants, else (n_rows,)
        shape = next(iter(varying.values())).shape[:-1] if varying else (n_rows,)
        if self._encoder is None or self._model is None:
            return np.full(shape, self._target_mean)
        encoder, model = self._encoder, self._model
        if memo is None:
            memo = lambda key, build: build()  # noqa: E731

        def block(attribute: str) -> np.ndarray:
            if attribute in varying:
                return varying[attribute]
            return memo(
                ("block", attribute),
                lambda: encoder.encoders[attribute].block(column_of(attribute)),
            )

        if isinstance(model, LinearRegression):
            offsets = encoder.offsets

            def add(partial: np.ndarray, attributes: Iterable[str], spare=None) -> np.ndarray:
                # with a ``spare`` the sums alternate between it and an owned ``partial``
                for attribute in attributes:
                    total = model.add_block(partial, block(attribute), offsets[attribute], spare)
                    partial, spare = total, None if spare is None else partial
                return partial

            fixed = [a for a in encoder.attribute_order if a not in varying]
            base = memo(
                ("base", self._token),
                lambda: add(np.full(n_rows, model.intercept), fixed, np.empty(n_rows)),
            )
            return add(base, [a for a in encoder.attribute_order if a in varying])

        def stacked_block(attribute: str) -> np.ndarray:
            if attribute in varying:
                return varying[attribute]
            fixed = block(attribute)
            return np.broadcast_to(fixed, (*shape, fixed.shape[-1]))

        features = np.concatenate(
            [stacked_block(a) for a in encoder.attribute_order], axis=-1
        )
        return model.predict(features.reshape(-1, features.shape[-1])).reshape(shape)

