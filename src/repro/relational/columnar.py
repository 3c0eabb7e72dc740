"""Columnar storage and execution: typed arrays, null masks, kernels.

A :class:`ColumnStore` holds one :class:`Column` per attribute: numeric
attributes become contiguous ``float64`` arrays (missing values stored as NaN
behind an explicit null mask), everything else stays an ``object`` array with
the same mask.  On top of that representation the module provides
whole-column kernels for

* predicate/expression evaluation (:func:`vectorized_mask`),
* key factorization shared by group-by and join (:func:`factorize_columns`),
* per-group aggregation via ``np.bincount`` (:func:`grouped_aggregate`),
* equi-join index computation (:func:`join_indices`).

The kernels implement the semantics documented in :mod:`repro.relational`;
the mask kernel is checked against the per-row evaluator
(:func:`~repro.relational.predicates.evaluate_predicate`) and the join,
group-by and ``Use`` kernels against a hand-written contract table in
``tests/relational/test_relational_contract.py``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ExpressionError, SchemaError
from .aggregates import get_aggregate
from .expressions import (
    Arithmetic,
    Attr,
    BooleanExpr,
    Comparison,
    Const,
    Expr,
    InSet,
    Not,
    Temporal,
)

__all__ = [
    "Column",
    "ColumnStore",
    "KernelCache",
    "column_from_buffers",
    "column_to_buffers",
    "factorize_columns",
    "fused_block_summary",
    "fused_mask_aggregate",
    "grouped_aggregate",
    "join_indices",
    "store_from_buffers",
    "store_to_buffers",
    "vectorized_mask",
]

def _is_numeric_value(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


_NO_NULLS = np.zeros(0, dtype=bool)


class Column:
    """One typed column: ``float64`` or ``object`` data plus a null mask.

    ``data`` is ``float64`` for numeric columns (NaN at null positions) and
    ``object`` otherwise (``None`` at null positions).  ``null`` is a boolean
    mask aligned with ``data``; ``valid`` is its complement.  Columns are
    immutable — transformations return new instances sharing nothing mutable.
    """

    __slots__ = ("data", "null", "is_numeric")

    def __init__(self, data: np.ndarray, null: np.ndarray, is_numeric: bool) -> None:
        self.data = data
        self.null = null
        self.is_numeric = is_numeric

    def __len__(self) -> int:
        return len(self.data)

    @property
    def valid(self) -> np.ndarray:
        return ~self.null

    @property
    def has_nulls(self) -> bool:
        return bool(self.null.any())

    @classmethod
    def from_values(cls, values: Sequence[Any] | np.ndarray) -> "Column":
        """Type-sniff ``values`` into a numeric (NaN-masked) or object column."""
        if isinstance(values, np.ndarray) and values.dtype != object:
            data = values.astype(float, copy=False)
            return cls(data, np.isnan(data), True)
        arr = np.asarray(values, dtype=object)
        null = np.fromiter((v is None for v in arr), dtype=bool, count=len(arr))
        non_null = arr[~null]
        numeric = all(_is_numeric_value(v) for v in non_null) and len(non_null) > 0
        if numeric:
            data = np.full(len(arr), np.nan)
            data[~null] = non_null.astype(float)
            # values stored as non-null NaN count as null too
            return cls(data, np.isnan(data), True)
        return cls(arr, null, False)

    def take(self, indices: np.ndarray) -> "Column":
        """Rows at ``indices``; index ``-1`` produces a null (left-join padding)."""
        indices = np.asarray(indices, dtype=int)
        pad = indices < 0
        if not len(self.data) and pad.all():
            # a left join against no rows: nothing to index, every row pads
            fill = np.nan if self.is_numeric else None
            return Column(np.full(len(indices), fill, dtype=self.data.dtype), pad, self.is_numeric)
        data = self.data[indices]
        null = self.null[indices] | pad
        if pad.any():
            data = data.copy()
            data[pad] = np.nan if self.is_numeric else None
        return Column(data, null, self.is_numeric)

    def filter(self, mask: np.ndarray) -> "Column":
        return Column(self.data[mask], self.null[mask], self.is_numeric)

    def values_list(self, indices: np.ndarray | None = None) -> list[Any]:
        """Values as a plain list with ``None`` at null positions."""
        col = self if indices is None else self.take(np.asarray(indices, dtype=int))
        if not col.is_numeric:
            return list(col.data)
        out: list[Any] = col.data.tolist()
        if col.has_nulls:
            for i in np.flatnonzero(col.null):
                out[i] = None
        return out

    def raw_array(self) -> np.ndarray:
        """Array in the legacy ``Relation`` representation (float or object)."""
        if self.is_numeric and not self.has_nulls:
            return self.data
        if self.is_numeric:
            out = self.data.astype(object)
            out[self.null] = None
            return out
        return self.data


class ColumnStore:
    """Named, aligned :class:`Column` objects — the columnar relation payload."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[str, Column], length: int) -> None:
        self.columns = columns
        self.length = length

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray | Sequence[Any]]) -> "ColumnStore":
        columns = {name: Column.from_values(arr) for name, arr in arrays.items()}
        length = len(next(iter(columns.values()))) if columns else 0
        return cls(columns, length)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __getitem__(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError as exc:
            raise ExpressionError(
                f"attribute {name!r} is not available in the evaluation context; "
                f"available: {sorted(self.columns)}"
            ) from exc

    def take(self, indices: np.ndarray) -> "ColumnStore":
        indices = np.asarray(indices, dtype=int)
        return ColumnStore(
            {name: col.take(indices) for name, col in self.columns.items()}, len(indices)
        )

    def filter(self, mask: np.ndarray) -> "ColumnStore":
        out = {name: col.filter(mask) for name, col in self.columns.items()}
        length = len(next(iter(out.values()))) if out else 0
        return ColumnStore(out, length)

    def with_column(self, name: str, column: Column, order: Sequence[str]) -> "ColumnStore":
        columns = {n: self.columns[n] for n in order if n in self.columns}
        columns[name] = column
        return ColumnStore({n: columns[n] for n in order}, self.length)


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------


class _VCol:
    """Intermediate evaluation result: values + null mask, possibly scalar."""

    __slots__ = ("kind", "data", "null")

    def __init__(self, kind: str, data: Any, null: Any) -> None:
        self.kind = kind  # "num" | "obj" | "bool"
        self.data = data  # ndarray or scalar
        self.null = null  # ndarray, bool scalar, or False


def _or_null(a: Any, b: Any) -> Any:
    if a is False:
        return b
    if b is False:
        return a
    return a | b


def _const_vcol(value: Any) -> _VCol:
    if value is None:
        return _VCol("obj", None, True)
    if isinstance(value, (bool, np.bool_)):
        return _VCol("bool", bool(value), False)
    if _is_numeric_value(value):
        return _VCol("num", float(value), False)
    return _VCol("obj", value, False)


def _attr_vcol(column: Column) -> _VCol:
    null: Any = column.null if column.has_nulls else False
    return _VCol("num" if column.is_numeric else "obj", column.data, null)


def _to_bool(vcol: _VCol, n: int) -> np.ndarray:
    """Coerce to a full-length boolean array; nulls become False."""
    data, null = vcol.data, vcol.null
    if vcol.kind == "bool":
        out = np.broadcast_to(np.asarray(data, dtype=bool), (n,)).copy()
    elif vcol.kind == "num":
        out = np.broadcast_to(np.asarray(data, dtype=float) != 0.0, (n,)).copy()
    else:  # object: rare — mirror bool(value) per element
        arr = np.broadcast_to(np.asarray(data, dtype=object), (n,))
        out = np.fromiter((bool(v) for v in arr), dtype=bool, count=n)
    if null is not False:
        out &= ~np.broadcast_to(np.asarray(null, dtype=bool), (n,))
    return out


def _as_object_operand(vcol: _VCol) -> Any:
    data = vcol.data
    if isinstance(data, np.ndarray) and data.dtype != object:
        return data.astype(object)
    return data


_CMP_UFUNCS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _eval(expr: Expr, store: ColumnStore, post_store: ColumnStore) -> _VCol:
    if isinstance(expr, Const):
        return _const_vcol(expr.value)
    if isinstance(expr, Attr):
        source = post_store if expr.temporal is Temporal.POST else store
        return _attr_vcol(source[expr.name])
    if isinstance(expr, Comparison):
        left = _eval(expr.left, store, post_store)
        right = _eval(expr.right, store, post_store)
        op = _CMP_UFUNCS[expr.op]
        null = _or_null(left.null, right.null)
        try:
            if left.kind == "num" and right.kind == "num":
                with np.errstate(invalid="ignore"):
                    result = np.asarray(op(left.data, right.data), dtype=bool)
                if null is not False:
                    result = result & ~null
            else:
                # Object path: evaluate only the non-null rows so None never
                # reaches an ordering ufunc (contract: null comparisons are
                # False, and only genuinely incomparable values may raise).
                n = store.length
                l_obj = np.broadcast_to(np.asarray(_as_object_operand(left)), (n,))
                r_obj = np.broadcast_to(np.asarray(_as_object_operand(right)), (n,))
                result = np.zeros(n, dtype=bool)
                if null is False:
                    result[:] = np.asarray(op(l_obj, r_obj), dtype=bool)
                else:
                    valid = ~np.broadcast_to(np.asarray(null, dtype=bool), (n,))
                    result[valid] = np.asarray(op(l_obj[valid], r_obj[valid]), dtype=bool)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left.data!r} {expr.op} {right.data!r}"
            ) from exc
        return _VCol("bool", result, False)
    if isinstance(expr, BooleanExpr):
        n = store.length
        parts = [_to_bool(_eval(o, store, post_store), n) for o in expr.operands]
        out = parts[0]
        for part in parts[1:]:
            out = (out & part) if expr.op == "and" else (out | part)
        return _VCol("bool", out, False)
    if isinstance(expr, Not):
        return _VCol("bool", ~_to_bool(_eval(expr.operand, store, post_store), store.length), False)
    if isinstance(expr, InSet):
        return _eval_inset(expr, store, post_store)
    if isinstance(expr, Arithmetic):
        left = _eval(expr.left, store, post_store)
        right = _eval(expr.right, store, post_store)
        op = _ARITH_UFUNCS[expr.op]
        null = _or_null(left.null, right.null)
        if left.kind == "num" and right.kind == "num":
            with np.errstate(all="ignore"):
                return _VCol("num", op(left.data, right.data), null)
        try:
            return _VCol("obj", op(_as_object_operand(left), _as_object_operand(right)), null)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot apply {expr.op!r} to {left.data!r} and {right.data!r}"
            ) from exc
    raise ExpressionError(f"cannot vectorize expression node {expr!r}")


def _eval_inset(expr: InSet, store: ColumnStore, post_store: ColumnStore) -> _VCol:
    operand = _eval(expr.operand, store, post_store)
    values = expr.values
    none_in_set = any(v is None for v in values)
    n = store.length
    if operand.kind == "num":
        numeric = [float(v) for v in values if isinstance(v, (bool, np.bool_)) or _is_numeric_value(v)]
        data = np.broadcast_to(np.asarray(operand.data, dtype=float), (n,))
        result = np.isin(data, numeric) if numeric else np.zeros(n, dtype=bool)
    else:
        data = np.broadcast_to(np.asarray(_as_object_operand(operand), dtype=object), (n,))
        result = np.zeros(n, dtype=bool)
        for v in values:
            if v is None:
                continue
            result |= np.asarray(data == v, dtype=bool)
    if operand.null is not False:
        null = np.broadcast_to(np.asarray(operand.null, dtype=bool), (n,))
        result = result.copy()
        result[null] = none_in_set
    return _VCol("bool", result, False)


def vectorized_mask(predicate: Expr, store: ColumnStore, post_store: ColumnStore | None) -> np.ndarray:
    """Evaluate a boolean predicate over a whole relation at once.

    ``post_store`` supplies ``Post(A)`` values; ``None`` makes post fall back
    to pre, exactly as the per-row :class:`EvaluationContext` does.
    """
    result = _to_bool(_eval(predicate, store, post_store or store), store.length)
    return result


# ---------------------------------------------------------------------------
# Factorization (shared by group-by and join)
# ---------------------------------------------------------------------------


def _factorize_numeric(data: np.ndarray, null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes + representative positions; nulls share one trailing code."""
    codes = np.empty(len(data), dtype=np.int64)
    valid = ~null
    uniques, inverse = np.unique(data[valid], return_inverse=True)
    codes[valid] = inverse
    codes[null] = len(uniques)
    n_codes = len(uniques) + (1 if null.any() else 0)
    return codes, np.int64(n_codes)


def _factorize_objects(values: Iterable[Any]) -> tuple[np.ndarray, np.ndarray]:
    """Hash-based factorization preserving Python equality (2 == 2.0 etc.)."""
    seen: dict[Any, int] = {}
    codes = []
    for v in values:
        code = seen.get(v)
        if code is None:
            code = len(seen)
            seen[v] = code
        codes.append(code)
    return np.asarray(codes, dtype=np.int64), np.int64(len(seen))


def factorize_columns(columns: Sequence[Column]) -> np.ndarray:
    """Dense int64 code per row for the combined key of ``columns``.

    Rows get equal codes exactly when their key tuples would share a Python
    dict bucket (``None`` keys included, ``2 == 2.0`` respected).
    Codes are re-compressed after every column so intermediate products stay
    bounded by ``n_rows * cardinality`` (no int64 overflow on wide keys).
    """
    if not columns:
        raise SchemaError("factorize_columns needs at least one column")
    combined: np.ndarray | None = None
    for col in columns:
        if col.is_numeric:
            codes, cardinality = _factorize_numeric(col.data, col.null)
        else:
            codes, cardinality = _factorize_objects(
                None if is_null else v for v, is_null in zip(col.data, col.null)
            )
        if combined is None:
            combined = codes
        else:
            _, combined = np.unique(combined * cardinality + codes, return_inverse=True)
    assert combined is not None
    return combined


def group_rows(columns: Sequence[Column]) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by the combined key of ``columns``.

    Returns ``(group_ids, representatives)`` where ``group_ids[i]`` is the
    group of row ``i`` numbered in order of first occurrence and
    ``representatives[g]`` is the first row of group ``g``.
    """
    combined = factorize_columns(columns)
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


# ---------------------------------------------------------------------------
# Aggregation kernels
# ---------------------------------------------------------------------------


def numeric_data(column: Column, context: str) -> np.ndarray:
    """Column values as float64 (nulls as NaN); raises for non-numeric data."""
    if column.is_numeric:
        return column.data
    try:
        return np.asarray(
            [np.nan if v is None else float(v) for v in column.data], dtype=float
        )
    except (TypeError, ValueError) as exc:
        raise ExpressionError(f"cannot aggregate non-numeric values for {context}") from exc


def grouped_aggregate(
    column: Column, group_ids: np.ndarray, n_groups: int, how: str
) -> np.ndarray:
    """Per-group sum/count/avg over non-null values (empty groups yield 0.0)."""
    valid = column.valid
    counts = np.bincount(group_ids[valid], minlength=n_groups).astype(float)
    if how == "count":
        return counts
    data = numeric_data(column, f"aggregate {how!r}")
    weights = np.where(valid, np.nan_to_num(data, nan=0.0), 0.0)
    sums = np.bincount(group_ids, weights=weights, minlength=n_groups)
    if how == "sum":
        return sums
    if how in ("avg", "average", "mean"):
        return np.divide(sums, counts, out=np.zeros(n_groups), where=counts > 0)
    raise ExpressionError(f"unsupported aggregate {how!r}; supported: sum, count, avg")


def _combined_pair_codes(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly factorize a multi-attribute key across two relations.

    Codes live in one shared, dense space (equal code ⇔ equal key across both
    sides) and are re-compressed after every attribute so intermediate
    products never overflow int64, however many key attributes there are.
    """
    left_codes: np.ndarray | None = None
    right_codes: np.ndarray | None = None
    for lcol, rcol in zip(left_columns, right_columns):
        lc, rc, cardinality = _pair_codes(lcol, rcol)
        if left_codes is None:
            left_codes, right_codes = lc, rc
        else:
            n_left = len(lc)
            merged = np.concatenate(
                [left_codes * cardinality + lc, right_codes * cardinality + rc]
            )
            _, inverse = np.unique(merged, return_inverse=True)
            left_codes, right_codes = inverse[:n_left], inverse[n_left:]
    assert left_codes is not None and right_codes is not None
    return left_codes, right_codes


def aggregate_lookup(
    base_columns: Sequence[Column],
    other_columns: Sequence[Column],
    values: Column,
    how: str,
) -> list[Any]:
    """Per-base-row aggregate of ``values`` grouped by a join key.

    The workhorse of the ``Use`` operator: groups the rows behind
    ``other_columns`` by their key, aggregates ``values`` per group (ignoring
    nulls) and looks the result up for every base row.  Base rows whose key
    has no (non-null) support map to ``None``.
    """
    base_codes, other_codes = _combined_pair_codes(base_columns, other_columns)
    n_codes = int(max(base_codes.max(initial=-1), other_codes.max(initial=-1))) + 1

    valid = values.valid
    counts = np.bincount(other_codes[valid], minlength=n_codes).astype(float)
    aggregate = get_aggregate(how).name
    if aggregate == "count":
        per_code = counts
    else:
        data = numeric_data(values, f"aggregate {how!r}")
        weights = np.where(valid, np.nan_to_num(data, nan=0.0), 0.0)
        sums = np.bincount(other_codes, weights=weights, minlength=n_codes)
        if aggregate == "sum":
            per_code = sums
        else:
            per_code = np.divide(sums, counts, out=np.zeros(n_codes), where=counts > 0)
    out_values = per_code[base_codes]
    supported = counts[base_codes] > 0
    return [float(v) if ok else None for v, ok in zip(out_values, supported)]


# ---------------------------------------------------------------------------
# Join kernel
# ---------------------------------------------------------------------------


def _pair_codes(left: Column, right: Column) -> tuple[np.ndarray, np.ndarray, np.int64]:
    """Jointly factorize one join-attribute pair across both relations."""
    n_left = len(left)
    if left.is_numeric and right.is_numeric:
        data = np.concatenate([left.data, right.data])
        null = np.concatenate([left.null, right.null])
        codes, cardinality = _factorize_numeric(data, null)
    else:
        combined = left.values_list() + right.values_list()
        codes, cardinality = _factorize_objects(combined)
    return codes[:n_left], codes[n_left:], cardinality


def join_indices(
    left_columns: Sequence[Column],
    right_columns: Sequence[Column],
    *,
    how: str = "inner",
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs of the equi-join on the given aligned key columns.

    Returns ``(left_idx, right_idx)``; ``right_idx`` is ``-1`` for unmatched
    left rows of a left join.  Pairs come left rows in order, each left row's
    right matches in ascending right-row order.
    """
    left_codes, right_codes = _combined_pair_codes(left_columns, right_columns)

    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    if how == "left":
        pad = counts == 0
        effective = np.where(pad, 1, counts)
    else:
        pad = None
        effective = counts
    total = int(effective.sum())
    left_idx = np.repeat(np.arange(len(left_codes)), effective)
    cumulative = np.concatenate([[0], np.cumsum(effective[:-1])]) if len(effective) else np.zeros(0, dtype=int)
    offsets = np.arange(total) - np.repeat(cumulative, effective)
    right_pos = np.repeat(starts, effective) + offsets
    right_idx = order[np.minimum(right_pos, len(order) - 1)] if len(order) else np.full(total, -1)
    if pad is not None:
        right_idx = right_idx.copy()
        right_idx[np.repeat(pad, effective)] = -1
    return left_idx, right_idx


# ---------------------------------------------------------------------------
# Buffer-protocol serialization (zero-copy snapshot transport)
# ---------------------------------------------------------------------------
#
# A column serializes to a compact header (plain dict of Python scalars) plus
# a short list of contiguous C-order buffers:
#
# * numeric columns ship their ``float64`` data buffer as-is, and the null
#   mask bit-packed (``np.packbits``) only when any null exists;
# * object columns are dictionary-encoded — an ``int32`` codes buffer plus a
#   small value table carried in the header (the table is tiny for the
#   categorical attributes this engine works with).
#
# The layout is Arrow-compatible in spirit (validity bitmap + values /
# dictionary indices).  Buffers are
# plain ndarrays; the shared-memory layer (:mod:`repro.shard.shm`) decides
# where their bytes live.  Decoding numeric columns is zero-copy: the
# returned arrays are read-only views over the supplied buffers.


_CODES_DTYPE = np.dtype(np.int32)


def _pack_null(null: np.ndarray) -> np.ndarray:
    return np.packbits(null.astype(np.uint8, copy=False))


def _unpack_null(packed: np.ndarray, length: int) -> np.ndarray:
    return np.unpackbits(np.asarray(packed, dtype=np.uint8), count=length).astype(bool)


def column_to_buffers(column: Column) -> tuple[dict, list[np.ndarray]]:
    """Serialize one column to ``(header, buffers)``.

    ``header`` contains only small Python values (safe to pickle cheaply);
    ``buffers`` is a list of contiguous C-order ndarrays whose bytes carry
    the column payload.  Exact round-trip: ``column_from_buffers`` restores
    data, null mask, and numeric-ness bit-for-bit.
    """
    n = len(column)
    if column.is_numeric:
        header: dict[str, Any] = {"kind": "f8", "length": n, "has_nulls": bool(column.null.any())}
        buffers = [np.ascontiguousarray(column.data, dtype=np.float64)]
        if header["has_nulls"]:
            buffers.append(_pack_null(column.null))
        return header, buffers
    # object column: dictionary-encode (codes buffer + small value table).
    # The dictionary keys on (type, value) so 2 / 2.0 / True survive the
    # round-trip with their exact types (str-encoding downstream depends on it).
    seen: dict[Any, int] = {}
    table: list[Any] = []
    codes = np.empty(n, dtype=_CODES_DTYPE)
    for i, v in enumerate(column.data):
        key = (v.__class__, v)
        code = seen.get(key)
        if code is None:
            code = len(seen)
            seen[key] = code
            table.append(v)
        codes[i] = code
    header = {
        "kind": "obj",
        "length": n,
        "has_nulls": bool(column.null.any()),
        "table": table,
    }
    buffers = [np.ascontiguousarray(codes, dtype=_CODES_DTYPE)]
    if header["has_nulls"]:
        buffers.append(_pack_null(column.null))
    return header, buffers


def column_from_buffers(header: Mapping[str, Any], buffers: Sequence[np.ndarray]) -> Column:
    """Inverse of :func:`column_to_buffers`.

    Numeric columns are *zero-copy*: ``data`` is a read-only float64 view of
    ``buffers[0]`` — the caller keeps the backing memory (e.g. a shared-memory
    segment) alive for the column's lifetime.  Object columns rebuild their
    object array from the dictionary (necessarily a copy; Python objects
    cannot live in a raw buffer).
    """
    n = int(header["length"])
    if header["kind"] == "f8":
        data = np.frombuffer(buffers[0], dtype=np.float64, count=n)
        data.flags.writeable = False
        null = _unpack_null(buffers[1], n) if header["has_nulls"] else np.zeros(n, dtype=bool)
        return Column(data, null, True)
    codes = np.frombuffer(buffers[0], dtype=_CODES_DTYPE, count=n)
    table = np.empty(len(header["table"]), dtype=object)
    for i, v in enumerate(header["table"]):
        table[i] = v
    data = table[codes] if n else np.empty(0, dtype=object)
    null = _unpack_null(buffers[1], n) if header["has_nulls"] else np.zeros(n, dtype=bool)
    return Column(data, null, False)


def store_to_buffers(store: ColumnStore) -> tuple[dict, list[np.ndarray]]:
    """Serialize a :class:`ColumnStore` to one header + flat buffer list."""
    headers: list[dict] = []
    buffers: list[np.ndarray] = []
    for name, column in store.columns.items():
        col_header, col_buffers = column_to_buffers(column)
        col_header["name"] = name
        col_header["n_buffers"] = len(col_buffers)
        headers.append(col_header)
        buffers.extend(col_buffers)
    return {"length": store.length, "columns": headers}, buffers


def store_from_buffers(header: Mapping[str, Any], buffers: Sequence[np.ndarray]) -> ColumnStore:
    """Inverse of :func:`store_to_buffers` (numeric columns stay zero-copy)."""
    columns: dict[str, Column] = {}
    cursor = 0
    for col_header in header["columns"]:
        n_buffers = int(col_header["n_buffers"])
        columns[col_header["name"]] = column_from_buffers(
            col_header, buffers[cursor : cursor + n_buffers]
        )
        cursor += n_buffers
    return ColumnStore(columns, int(header["length"]))


# ---------------------------------------------------------------------------
# Fused single-pass kernels + per-plan cache
# ---------------------------------------------------------------------------
#
# The unfused pipeline materializes every stage: evaluate predicate -> index
# the rows -> gather values -> aggregate.  The fused kernels below collapse
# predicate application and (grouped) aggregation into a single bincount
# traversal with where-masked weights, never materializing the filtered
# intermediates.  They are value-exact vs. the unfused reference: bincount
# accumulates per bin in row order, and interleaving masked-out ``+0.0``
# terms leaves every IEEE-754 sum unchanged — the property tests in
# ``tests/relational/test_fused_kernels.py`` assert this.


def fused_mask_aggregate(
    group_ids: np.ndarray,
    n_groups: int,
    *,
    mask: np.ndarray | None = None,
    values: np.ndarray | None = None,
    how: str = "count",
) -> np.ndarray:
    """Masked per-group aggregate in one traversal.

    Equivalent to ``grouped_aggregate(column.filter(mask), group_ids[mask],
    ...)`` but with the predicate folded into the bincount weights, so no
    filtered copy of the data is ever built.  ``how`` is ``count`` | ``sum``
    | ``avg``; ``mask=None`` aggregates every row.
    """
    if how == "count":
        if mask is None:
            return np.bincount(group_ids, minlength=n_groups).astype(float)
        return np.bincount(
            group_ids, weights=mask.astype(float, copy=False), minlength=n_groups
        )
    if values is None:
        raise ExpressionError(f"fused aggregate {how!r} needs values")
    weights = values if mask is None else np.where(mask, values, 0.0)
    sums = np.bincount(group_ids, weights=weights, minlength=n_groups)
    if how == "sum":
        return sums
    if how in ("avg", "average", "mean"):
        counts = fused_mask_aggregate(group_ids, n_groups, mask=mask, how="count")
        return np.divide(sums, counts, out=np.zeros(n_groups), where=counts > 0)
    raise ExpressionError(f"unsupported fused aggregate {how!r}; supported: sum, count, avg")


def fused_block_summary(
    contribution: np.ndarray,
    block_of_row: np.ndarray,
    n_blocks: int,
    *,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block contribution totals in one pass (predicate folded in)."""
    return fused_mask_aggregate(
        block_of_row, n_blocks, mask=mask, values=contribution, how="sum"
    )


#: Bounds of one plan's :class:`KernelCache`.  Keys embed ``When`` / ``For``
#: literals, so a sweep over a literal (``WHEN Age >= x``) adds masks, index
#: sets and per-regressor partial predictions per value; least recently used
#: entries leave once the arrays held exceed the byte budget.
_KERNEL_CACHE_BYTES = 64 * 1024 * 1024
_KERNEL_CACHE_ENTRIES = 4096


def _entry_bytes(entry: Any) -> int:
    return int(getattr(entry, "nbytes", 0))


class KernelCache:
    """Per-view cache of masks, index sets, and derived arrays.

    One store lives alongside each ``Use`` specification in a service's caches
    (a pool worker's service alike) and outlives commits: :meth:`get` keys an
    entry by the generations of the view columns it ``reads`` (as :meth:`at`
    binds them) and tags it with their sources.  Keys are caller-chosen small
    tuples; values are immutable, so concurrent queries share a store: a
    racing miss builds the same array twice, harmlessly.
    Returning the *same object* on every hit also lets pickle's memo
    deduplicate repeated carriers inside one batch message, which is what
    keeps shard partial payloads small.  Bounded by ``_KERNEL_CACHE_BYTES``
    with least-recently-used eviction; an entry larger than the whole budget
    is returned to the caller but not kept.
    """

    __slots__ = ("_entries", "_generations", "_sources")

    def __init__(self, entries: Any = None, generations: Mapping | None = None,
                 sources: Mapping | None = None) -> None:
        # Lazy: the service package sits above this one (its LRU is a leaf
        # module with no repro imports, but its package __init__ is not).
        from ..service.cache import LRUCache

        self._entries = entries if entries is not None else LRUCache(
            _KERNEL_CACHE_ENTRIES, "kernels", weigher=_entry_bytes, max_weight=_KERNEL_CACHE_BYTES
        )
        self._generations, self._sources = generations or {}, sources or {}

    def at(self, generations: Mapping, sources: Mapping) -> "KernelCache":
        """This store at one snapshot: each view column's generation and sources."""
        return KernelCache(self._entries, generations, sources)

    def get(self, key: Any, build: Any, reads: Sequence[str] = ()) -> Any:
        """The entry ``key`` over the view columns ``reads``, built on a miss."""
        if reads:
            key = (*key, tuple(map(self._generations.get, reads)))
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            entry = build()
            if isinstance(entry, np.ndarray):
                entry.flags.writeable = False
            if _entry_bytes(entry) <= self._entries.max_weight:
                self._entries.put(
                    key, entry, tags=[s for a in reads for s in self._sources.get(a, ())]
                )
        return entry

    def evict_tagged(self, tags: Any) -> int:
        """Drop the entries built from any of the database columns ``tags``."""
        return self._entries.evict_tagged(tags)

    @property
    def hits(self) -> int:
        return self._entries.stats().hits

    @property
    def misses(self) -> int:
        return self._entries.stats().misses

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays currently held."""
        return self._entries.total_weight

    def __len__(self) -> int:
        return len(self._entries)


_MISSING = object()
