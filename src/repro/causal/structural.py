"""Structural equations and noise models for PRCMs.

A structural equation defines the value of an endogenous attribute as a
function of its endogenous parents and an exogenous noise variable
(Section 2.2).  The synthetic-data generators and the ground-truth simulator
both evaluate these equations; the inference engine never needs them (it only
sees observational data), which mirrors the separation in the paper between the
data-generating process and HypeR's estimation from data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..exceptions import CausalModelError

__all__ = [
    "NoiseModel",
    "GaussianNoise",
    "UniformNoise",
    "NoNoise",
    "StructuralEquation",
    "LinearEquation",
    "LogisticEquation",
    "DiscreteCPD",
    "FunctionalEquation",
    "ExogenousDistribution",
]


# ---------------------------------------------------------------------------
# Noise models (the exogenous variables epsilon)
# ---------------------------------------------------------------------------


class NoiseModel:
    """Distribution of an exogenous noise variable; each defines ``sample(rng, size)``."""


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """Zero-mean Gaussian noise with standard deviation ``scale``."""

    scale: float = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(0.0, self.scale, size=size)


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    """Uniform noise on ``[low, high]``."""

    low: float = -1.0
    high: float = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    """Degenerate noise (deterministic structural equation)."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.zeros(size)


# ---------------------------------------------------------------------------
# Exogenous (root) distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExogenousDistribution:
    """Marginal distribution of a root attribute (no endogenous parents).

    ``kind`` is one of ``"normal"``, ``"uniform"``, ``"categorical"``; the
    ``params`` dict supplies the obvious parameters (``loc``/``scale``,
    ``low``/``high``, or ``values``/``probabilities``).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(
                self.params.get("loc", 0.0), self.params.get("scale", 1.0), size=size
            )
        if self.kind == "uniform":
            return rng.uniform(
                self.params.get("low", 0.0), self.params.get("high", 1.0), size=size
            )
        if self.kind == "categorical":
            values = list(self.params["values"])
            probabilities = self.params.get("probabilities")
            idx = rng.choice(len(values), size=size, p=probabilities)
            return np.array([values[i] for i in idx], dtype=object)
        raise CausalModelError(f"unknown exogenous distribution kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Structural equations
# ---------------------------------------------------------------------------


class StructuralEquation:
    """Base class: computes an attribute from parent values and noise.

    Each equation defines ``compute(parent_values, noise)``, the vectorised
    evaluation over ``n`` units (an array of length ``n``)."""

    #: names of the endogenous parents, in the order expected by ``compute``
    parents: tuple[str, ...] = ()
    noise: NoiseModel = NoNoise()

    def sample(
        self,
        parent_values: Mapping[str, np.ndarray],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        return self.compute(parent_values, self.noise.sample(rng, size))

    def _parent_matrix(
        self, parent_values: Mapping[str, np.ndarray], size: int
    ) -> np.ndarray:
        columns = []
        for parent in self.parents:
            if parent not in parent_values:
                raise CausalModelError(
                    f"structural equation expected parent {parent!r}; "
                    f"got {sorted(parent_values)}"
                )
            columns.append(np.asarray(parent_values[parent], dtype=float))
        if not columns:
            return np.zeros((size, 0))
        return np.column_stack(columns)


@dataclass
class LinearEquation(StructuralEquation):
    """``value = intercept + sum_i weight_i * parent_i + noise`` (optionally clipped)."""

    weights: Mapping[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    noise: NoiseModel = field(default_factory=lambda: GaussianNoise(1.0))
    clip: tuple[float, float] | None = None
    round_to_int: bool = False

    def __post_init__(self) -> None:
        self.parents = tuple(self.weights)

    def compute(self, parent_values, noise):
        size = len(noise)
        matrix = self._parent_matrix(parent_values, size)
        weight_vector = np.array([self.weights[p] for p in self.parents], dtype=float)
        values = self.intercept + noise
        if matrix.shape[1]:
            values = values + matrix @ weight_vector
        if self.clip is not None:
            values = np.clip(values, self.clip[0], self.clip[1])
        if self.round_to_int:
            values = np.rint(values)
        return values


@dataclass
class LogisticEquation(StructuralEquation):
    """Bernoulli/binary outcome with ``P(1) = sigmoid(intercept + w . parents)``.

    ``labels`` maps the two outcomes; by default 0/1.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    labels: tuple[Any, Any] = (0, 1)
    noise: NoiseModel = field(default_factory=NoNoise)

    def __post_init__(self) -> None:
        self.parents = tuple(self.weights)

    def probability(self, parent_values: Mapping[str, np.ndarray], size: int) -> np.ndarray:
        matrix = self._parent_matrix(parent_values, size)
        weight_vector = np.array([self.weights[p] for p in self.parents], dtype=float)
        logits = np.full(size, self.intercept, dtype=float)
        if matrix.shape[1]:
            logits = logits + matrix @ weight_vector
        return 1.0 / (1.0 + np.exp(-logits))

    def compute(self, parent_values, noise):
        # ``noise`` is interpreted as the uniform draw deciding the Bernoulli outcome.
        size = len(noise)
        probs = self.probability(parent_values, size)
        uniform = (np.asarray(noise) % 1.0 + 1.0) % 1.0 if np.any(noise) else None
        if uniform is None:
            uniform = probs * 0.0 + 0.5  # deterministic threshold when no noise provided
        draws = uniform < probs
        return np.where(draws, self.labels[1], self.labels[0])

    def sample(self, parent_values, rng, size):
        probs = self.probability(parent_values, size)
        draws = rng.uniform(size=size) < probs
        return np.where(draws, self.labels[1], self.labels[0])


@dataclass
class DiscreteCPD(StructuralEquation):
    """Conditional probability table over discrete parents.

    ``table`` maps a tuple of parent values to a mapping of outcome -> probability.
    A ``default`` distribution covers parent combinations absent from the table.
    """

    parent_names: Sequence[str] = ()
    table: Mapping[tuple, Mapping[Any, float]] = field(default_factory=dict)
    default: Mapping[Any, float] | None = None
    noise: NoiseModel = field(default_factory=NoNoise)

    def __post_init__(self) -> None:
        self.parents = tuple(self.parent_names)
        for combo, dist in self.table.items():
            total = sum(dist.values())
            if not np.isclose(total, 1.0, atol=1e-6):
                raise CausalModelError(
                    f"CPD row for parents {combo} sums to {total}, expected 1.0"
                )

    def _distribution_for(self, combo: tuple) -> Mapping[Any, float]:
        if combo in self.table:
            return self.table[combo]
        if self.default is not None:
            return self.default
        raise CausalModelError(f"no CPD row for parent combination {combo!r}")

    def compute(self, parent_values, noise):
        # Deterministic evaluation picks the modal outcome.
        size = len(noise)
        out = np.empty(size, dtype=object)
        for i in range(size):
            combo = tuple(parent_values[p][i] for p in self.parents)
            dist = self._distribution_for(combo)
            out[i] = max(dist.items(), key=lambda kv: kv[1])[0]
        return out

    def sample(self, parent_values, rng, size):
        out = np.empty(size, dtype=object)
        for i in range(size):
            combo = tuple(parent_values[p][i] for p in self.parents)
            dist = self._distribution_for(combo)
            outcomes = list(dist)
            probs = np.array([dist[o] for o in outcomes], dtype=float)
            out[i] = outcomes[rng.choice(len(outcomes), p=probs / probs.sum())]
        return out


@dataclass
class FunctionalEquation(StructuralEquation):
    """Arbitrary vectorised function of the parents plus additive noise.

    ``function`` receives a dict of parent arrays and must return an array.
    """

    parent_names: Sequence[str] = ()
    function: Callable[[Mapping[str, np.ndarray]], np.ndarray] = lambda parents: np.zeros(0)
    noise: NoiseModel = field(default_factory=NoNoise)
    clip: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        self.parents = tuple(self.parent_names)

    def compute(self, parent_values, noise):
        values = np.asarray(self.function(parent_values), dtype=float) + np.asarray(noise)
        if self.clip is not None:
            values = np.clip(values, self.clip[0], self.clip[1])
        return values
