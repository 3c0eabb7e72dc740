"""Feature encoding: turning relation columns into numeric design matrices.

The conditional-probability estimators (Section 3.3 / A.4) regress an outcome
on the update attribute and the backdoor set.  Those attributes may be numeric
or categorical; this module provides the label/one-hot encoders that build the
numeric feature matrices consumed by the regressors in :mod:`repro.ml`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import EstimationError
from ..relational.columnar import Column
from ..relational.relation import Relation

__all__ = ["ColumnEncoder", "FeatureEncoder"]


@dataclass
class ColumnEncoder:
    """Encoder for a single attribute: pass-through for numeric, one-hot otherwise.

    Fitting and transforming go through :class:`~repro.relational.columnar.Column`
    so whole-column ndarray inputs (a relation's typed columns) are
    encoded without per-value Python loops.  The null step is conditional: a
    column without nulls is averaged in place and copied once, and a returned
    block never shares memory with the caller's values.
    """

    name: str
    numeric: bool = True
    categories: tuple[Any, ...] = ()
    fill_value: float = 0.0

    @classmethod
    def fit(cls, name: str, values: Sequence[Any]) -> "ColumnEncoder":
        column = Column.from_values(values)
        if len(column) == 0 or column.null.all():
            raise EstimationError(f"column {name!r} has no non-null values to encode")
        if column.is_numeric:
            observed = column.data[column.valid] if column.has_nulls else column.data
            return cls(name=name, numeric=True, fill_value=float(observed.mean()))
        categories = tuple(sorted({str(v) for v in column.data[column.valid]}))
        return cls(name=name, numeric=False, categories=categories)

    @property
    def width(self) -> int:
        return 1 if self.numeric else len(self.categories)

    def block(self, values: Sequence[Any]) -> np.ndarray:
        """:meth:`transform`, but a float array without NaN comes back as itself, one
        column wide: a block that is only read need not be a copy."""
        if self.numeric and isinstance(values, np.ndarray) and values.dtype.kind == "f":
            if not values.size or not np.isnan(values.min()):
                return values.reshape(-1, 1)
        return self.transform(values)

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        column = Column.from_values(values)
        n = len(column)
        if self.numeric:
            if column.is_numeric:
                out = column.data.reshape(n, 1).copy()
                if column.has_nulls:
                    out[column.null, 0] = self.fill_value
                return out
            # Mixed content hitting a numeric encoder: reference per-value loop
            # (float() raises for non-numeric values exactly as it used to).
            out = np.empty((n, 1))
            for i, v in enumerate(column.data):
                out[i, 0] = self.fill_value if v is None else float(v)
            return out
        out = np.zeros((n, len(self.categories)))
        if not self.categories:
            return out
        valid_rows = np.flatnonzero(column.valid)
        if valid_rows.size == 0:
            return out
        # Label with str() of the ORIGINAL values, not the sniffed column data:
        # a purely-numeric batch drawn from a mixed column must stringify as
        # str(2) == '2' (matching the categories recorded at fit time), not as
        # the float-converted '2.0'.
        source = (
            np.asarray(values, dtype=object) if column.is_numeric else column.data
        )
        labels = source[valid_rows].astype(str)
        cats = np.asarray(self.categories, dtype=str)
        pos = np.searchsorted(cats, labels)
        pos_clipped = np.minimum(pos, len(cats) - 1)
        known = cats[pos_clipped] == labels
        out[valid_rows[known], pos_clipped[known]] = 1.0
        return out

    def transform_into(self, values: Sequence[Any], out: np.ndarray) -> None:
        """:meth:`transform` written into ``out``, this encoder's columns of a design
        (a float array without NaN, found by one reduction: one copy, no fill)."""
        np.copyto(out, self.block(values))


@dataclass
class FeatureEncoder:
    """Encoder for an ordered set of attributes of a relation."""

    encoders: dict[str, ColumnEncoder] = field(default_factory=dict)
    attribute_order: tuple[str, ...] = ()

    @classmethod
    def fit(cls, relation: Relation, attributes: Sequence[str]) -> "FeatureEncoder":
        encoders = {}
        for attr in attributes:
            encoders[attr] = ColumnEncoder.fit(attr, relation.column_view(attr))
        return cls(encoders=encoders, attribute_order=tuple(attributes))

    @classmethod
    def fit_columns(cls, columns: Mapping[str, Sequence[Any]]) -> "FeatureEncoder":
        encoders = {name: ColumnEncoder.fit(name, values) for name, values in columns.items()}
        return cls(encoders=encoders, attribute_order=tuple(columns))

    @property
    def width(self) -> int:
        return sum(self.encoders[a].width for a in self.attribute_order)

    @property
    def offsets(self) -> dict[str, int]:
        """First design-matrix column of each attribute's block (ones column not counted)."""
        out, at = {}, 0
        for attr in self.attribute_order:
            out[attr] = at
            at += self.encoders[attr].width
        return out

    def design(self, columns: Mapping[str, Sequence[Any]]) -> np.ndarray:
        """The design matrix of ``columns`` behind a leading column of ones.

        Each attribute's block is encoded straight into its columns of one
        column-major ``(n, 1 + width)`` array, the intercept's ones in place:
        what a linear fit hands to its solver, and ``[:, 1:]`` of it what a
        forest trains on.  Column-major makes each block one contiguous write
        (row-major, every value is a store ``1 + width`` floats from the last).
        """
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise EstimationError("all columns must have the same length")
        out = np.empty((lengths.pop() if lengths else 0, 1 + self.width), order="F")
        out[:, 0] = 1.0
        for attr, offset in self.offsets.items():
            encoder = self.encoders[attr]
            encoder.transform_into(
                columns[attr], out[:, 1 + offset : 1 + offset + encoder.width]
            )
        return out
