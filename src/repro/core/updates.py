"""Hypothetical updates (Definition 2) and the update-function forms of Section 3.1.

A hypothetical update ``u_{R,B,f,S}`` names a relation ``R``, a mutable update
attribute ``B``, a subset ``S`` of tuples (expressed as the ``When`` predicate)
and a function ``f`` applied to the pre-update value of ``B``.  HypeR supports
three function forms: set to a constant, add a constant, multiply by a constant
(``Update(B) = <const>``, ``<const> + Pre(B)``, ``<const> x Pre(B)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..exceptions import QuerySemanticsError
from ..relational.expressions import Expr
from ..relational.predicates import TRUE

__all__ = [
    "UpdateFunction",
    "apply_update_column",
    "SetTo",
    "AddConstant",
    "MultiplyBy",
    "AttributeUpdate",
    "HypotheticalUpdate",
]


class UpdateFunction:
    """Abstract update function ``f : Dom(B) -> Dom(B)``.

    Each function defines ``apply(value)`` and ``describe()``, its text."""

    def apply_vectorized(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Whole-column application where ``mask`` holds (``None``: every entry),
        or ``None`` when the function has no vectorized form (callers fall back
        to :meth:`apply`)."""
        return None


def apply_update_column(
    function: "UpdateFunction",
    pre_values: Sequence[Any],
    scope_mask: Sequence[bool] | None = None,
) -> np.ndarray | list[Any]:
    """Post-update column: ``f(pre)`` where ``scope_mask`` holds (``None``: at
    every entry), ``pre`` elsewhere.

    Numeric ndarray columns go through the update function's vectorized form
    (the hot path); anything else falls back to a per-value loop, which skips
    ``None`` entries.
    """
    mask = None if scope_mask is None else np.asarray(scope_mask, dtype=bool)
    if isinstance(pre_values, np.ndarray) and pre_values.dtype.kind == "f":
        vectorized = function.apply_vectorized(pre_values, mask)
        if vectorized is not None:
            return vectorized
    out = list(pre_values)
    for i in range(len(out)) if mask is None else np.flatnonzero(mask):
        if out[i] is not None:
            out[i] = function.apply(out[i])
    return out


@dataclass(frozen=True)
class SetTo(UpdateFunction):
    """``Update(B) = <const>`` — force the attribute to a constant value."""

    value: Any

    def apply(self, value: Any) -> Any:
        return self.value

    def apply_vectorized(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray | None:
        if not isinstance(self.value, (int, float, np.integer, np.floating)) or isinstance(
            self.value, bool
        ):
            return None
        if mask is None:
            return np.full(len(values), float(self.value))
        return np.where(mask, float(self.value), values)

    def describe(self) -> str:
        if isinstance(self.value, float):
            return f"= {float(self.value):.6g}"
        if isinstance(self.value, (int, bool)):
            return f"= {self.value}"
        return f"= {self.value!r}"


@dataclass(frozen=True)
class AddConstant(UpdateFunction):
    """``Update(B) = <const> + Pre(B)``."""

    delta: float

    def apply(self, value: Any) -> Any:
        return value + self.delta

    def apply_vectorized(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray | None:
        if mask is None:
            return values + self.delta
        return np.where(mask, values + self.delta, values)

    def describe(self) -> str:
        return f"+= {self.delta}"


@dataclass(frozen=True)
class MultiplyBy(UpdateFunction):
    """``Update(B) = <const> x Pre(B)``."""

    factor: float

    def apply(self, value: Any) -> Any:
        return value * self.factor

    def apply_vectorized(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray | None:
        if mask is None:
            return values * self.factor
        return np.where(mask, values * self.factor, values)

    def describe(self) -> str:
        return f"*= {self.factor}"


@dataclass(frozen=True)
class AttributeUpdate:
    """A single attribute update: the attribute ``B`` and its function ``f``."""

    attribute: str
    function: UpdateFunction

    def describe(self) -> str:
        return f"Update({self.attribute}) {self.function.describe()}"


@dataclass
class HypotheticalUpdate:
    """A (possibly multi-attribute) hypothetical update with its ``When`` scope.

    Multi-attribute updates are allowed provided the updated attributes are
    causally unrelated (the engine validates this against the causal graph when
    one is available, matching the restriction stated at the end of Section 3.1).
    """

    updates: list[AttributeUpdate] = field(default_factory=list)
    when: Expr = TRUE

    def __post_init__(self) -> None:
        if not self.updates:
            raise QuerySemanticsError("a hypothetical update needs at least one attribute update")
        names = [u.attribute for u in self.updates]
        if len(set(names)) != len(names):
            raise QuerySemanticsError(f"duplicate update attributes: {names}")
        if self.when.uses_post():
            raise QuerySemanticsError("the When clause may only reference Pre values")

    def function_for(self, attribute: str) -> UpdateFunction:
        for update in self.updates:
            if update.attribute == attribute:
                return update.function
        raise QuerySemanticsError(f"no update declared for attribute {attribute!r}")

    def updated_values(
        self, attribute: str, pre_values: Sequence[Any], scope_mask: Sequence[bool]
    ) -> np.ndarray | list[Any]:
        """Post-update values of ``attribute``: ``f(pre)`` inside the scope, ``pre`` outside."""
        return apply_update_column(self.function_for(attribute), pre_values, scope_mask)

    def describe(self) -> str:
        return " and ".join(u.describe() for u in self.updates)
