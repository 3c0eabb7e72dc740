"""Attribute types and domains for the relational substrate.

HypeR needs slightly more than a plain relational schema: every attribute has a
*domain* (Definition 1 in the paper builds possible worlds by letting mutable
attributes range over their domains) and is flagged as *mutable* or *immutable*.
This module provides the domain abstractions used throughout the engine:

* :class:`NumericDomain` — a (possibly bounded) interval of reals or integers.
* :class:`CategoricalDomain` — an explicit finite set of admissible values.
* :class:`BooleanDomain` — a two-valued convenience domain.

Domains know how to validate values, enumerate themselves (when finite), and
sample values — the latter two are used by the possible-world enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import DomainError

__all__ = [
    "AttributeKind",
    "Domain",
    "NumericDomain",
    "IntegerDomain",
    "CategoricalDomain",
    "BooleanDomain",
    "infer_domain",
]


class AttributeKind(Enum):
    """Broad classification of an attribute's values."""

    NUMERIC = "numeric"
    INTEGER = "integer"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"


class Domain:
    """Abstract base for attribute domains.

    Each subclass defines ``contains(value)``, the ``is_finite`` property,
    ``values()`` (the enumeration of a finite domain) and ``sample(rng,
    size)`` (``size`` admissible values drawn uniformly).
    """

    kind: AttributeKind

    def validate(self, value: Any, attribute: str = "<attribute>") -> Any:
        """Return ``value`` if admissible, otherwise raise :class:`DomainError`."""
        if not self.contains(value):
            raise DomainError(f"value {value!r} is outside the domain of {attribute}: {self}")
        return value

    @property
    def is_numeric(self) -> bool:
        return self.kind in (AttributeKind.NUMERIC, AttributeKind.INTEGER)


@dataclass(frozen=True)
class NumericDomain(Domain):
    """A real-valued interval ``[low, high]`` (either side may be unbounded)."""

    low: float = -math.inf
    high: float = math.inf
    kind: AttributeKind = field(default=AttributeKind.NUMERIC, init=False)

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise DomainError(f"numeric domain has low={self.low} > high={self.high}")

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool) or value is None:
            return False
        try:
            x = float(value)
        except (TypeError, ValueError):
            return False
        if math.isnan(x):
            return False
        return self.low <= x <= self.high

    @property
    def is_finite(self) -> bool:
        return False

    def values(self) -> list[Any]:
        raise DomainError("a continuous numeric domain cannot be enumerated; discretize it")

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.low) and math.isfinite(self.high)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        if not self.is_bounded:
            raise DomainError("cannot sample uniformly from an unbounded numeric domain")
        return rng.uniform(self.low, self.high, size=size)

    def __str__(self) -> str:
        return f"Numeric[{self.low}, {self.high}]"


@dataclass(frozen=True)
class IntegerDomain(Domain):
    """An integer interval ``[low, high]``."""

    low: int
    high: int
    kind: AttributeKind = field(default=AttributeKind.INTEGER, init=False)

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise DomainError(f"integer domain has low={self.low} > high={self.high}")

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool) or value is None:
            return False
        if isinstance(value, float) and not float(value).is_integer():
            return False
        try:
            x = int(value)
        except (TypeError, ValueError):
            return False
        return self.low <= x <= self.high

    @property
    def is_finite(self) -> bool:
        return True

    def values(self) -> list[int]:
        return list(range(self.low, self.high + 1))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=size)

    def __str__(self) -> str:
        return f"Integer[{self.low}, {self.high}]"


@dataclass(frozen=True)
class CategoricalDomain(Domain):
    """A finite, explicitly enumerated set of admissible values."""

    categories: tuple[Any, ...]
    kind: AttributeKind = field(default=AttributeKind.CATEGORICAL, init=False)

    def __init__(self, categories: Iterable[Any]):
        cats = tuple(dict.fromkeys(categories))  # de-duplicate, preserve order
        if not cats:
            raise DomainError("a categorical domain needs at least one category")
        object.__setattr__(self, "categories", cats)

    def contains(self, value: Any) -> bool:
        return value in self.categories

    @property
    def is_finite(self) -> bool:
        return True

    def values(self) -> list[Any]:
        return list(self.categories)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        idx = rng.integers(0, len(self.categories), size=size)
        return np.array([self.categories[i] for i in idx], dtype=object)

    def __len__(self) -> int:
        return len(self.categories)

    def __str__(self) -> str:
        preview = ", ".join(map(repr, self.categories[:4]))
        suffix = ", ..." if len(self.categories) > 4 else ""
        return f"Categorical[{preview}{suffix}]"


class BooleanDomain(CategoricalDomain):
    """Convenience domain for two-valued attributes (``False`` / ``True``)."""

    def __init__(self) -> None:
        super().__init__((False, True))
        object.__setattr__(self, "kind", AttributeKind.BOOLEAN)


def infer_domain(values: Sequence[Any]) -> Domain:
    """Infer a reasonable domain from observed values.

    Numeric columns get a :class:`NumericDomain` spanning the observed range
    (padded slightly so hypothetical updates near the boundary stay in-domain);
    everything else becomes a :class:`CategoricalDomain` of the distinct values.
    """
    non_null = [v for v in values if v is not None]
    if not non_null:
        raise DomainError("cannot infer a domain from an empty column")
    if all(isinstance(v, bool) for v in non_null):
        return BooleanDomain()
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in non_null):
        arr = np.asarray(non_null, dtype=float)
        low, high = float(arr.min()), float(arr.max())
        pad = 0.5 * (high - low) if high > low else max(abs(high), 1.0)
        if all(float(v).is_integer() for v in non_null):
            return IntegerDomain(int(math.floor(low - pad)), int(math.ceil(high + pad)))
        return NumericDomain(low - pad, high + pad)
    return CategoricalDomain(sorted({str(v) for v in non_null}))
