"""Bit-exact JSON wire forms for the cluster's internal protocol: the scalar
answer codecs of ``/v1/partial``, the array frame a stage body's columns
travel in, and the what-if partial codecs only the probes still use.

An *answer* (``kind="answers"``: the node ran the whole query) is scalars
only, no arrays: a what-if's result fields, or a how-to's plus the updates it
chose.  Scalars and ``metadata`` dictionaries travel as plain JSON — Python's
``json`` module round-trips ``float`` (shortest-repr; ``NaN``/``±Infinity``
literals, ``-0.0`` and subnormals included) exactly, and every metadata value
the engines emit is a JSON-safe str/int/list — which is what keeps the
coordinator's answers *bitwise* equal to a single unsharded service.  An item
the node could not answer travels as the ``(status, envelope)`` of
:func:`repro.api.core.envelope_for`.

An array is one *frame*: base64 of its raw little-endian bytes — ``tobytes``
→ ``frombuffer`` preserves every IEEE-754 bit pattern.  Each column of a
``/v1/cluster/update`` stage body is one float64 frame, the f8 buffer of
``column_to_buffers``.  So are the arrays of a what-if *partial*
(``kind="whatif"``, a :class:`~repro.shard.merge.WhatIfShardPartial`), which no
query takes any more: it is kept until ROADMAP 1(d) because ``perf/probes.py``
times it.
"""

from __future__ import annotations

import base64
from typing import Any

import numpy as np

from ..api.core import ApiError, envelope_for
from ..api.schemas import ErrorEnvelope
from ..core.results import HowToResult, WhatIfResult
from ..core.updates import AddConstant, AttributeUpdate, MultiplyBy, SetTo, UpdateFunction
from ..exceptions import HypeRError
from ..shard.merge import WhatIfShardPartial

__all__ = [
    "WireError",
    "decode_array",
    "decode_how_to_answer",
    "decode_what_if_answer",
    "decode_what_if_partial",
    "encode_array",
    "encode_how_to_answer",
    "encode_what_if_answer",
    "encode_what_if_partial",
]


class WireError(HypeRError):
    """A malformed cluster wire payload."""


# -- raw array codec -----------------------------------------------------------------


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """``{"dtype", "shape", "data"}`` with ``data`` = base64 of the raw bytes."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: Any) -> np.ndarray:
    """A frame's array; a malformed dtype, shape or byte count is a :class:`WireError`."""
    if not isinstance(payload, dict):
        raise WireError(f"array payload must be an object, got {type(payload).__name__}")
    try:
        dtype = np.dtype(payload["dtype"])
        shape = tuple(int(n) for n in payload["shape"])
        raw = base64.b64decode(payload["data"])
    except (KeyError, TypeError, ValueError) as error:
        raise WireError(f"malformed array payload: {error}") from None
    if dtype.hasobject:  # raw bytes never hold Python objects
        raise WireError(f"array payload cannot be of dtype {dtype}")
    expected = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
    if len(raw) != expected:
        raise WireError(
            f"array payload carries {len(raw)} bytes, expected {expected} "
            f"for shape {shape} of {dtype}"
        )
    # copy() detaches from the read-only frombuffer view — merge finishers
    # index and scatter these arrays freely
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _encode_optional(array: np.ndarray | None) -> dict[str, Any] | None:
    return None if array is None else encode_array(array)


def _decode_optional(payload: Any) -> np.ndarray | None:
    return None if payload is None else decode_array(payload)


# -- scalar values -------------------------------------------------------------------


def _plain_scalar(value: Any) -> Any:
    """Demote numpy scalars to builtins (json can't serialise np.float64)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        # float(np.float64) is the identical IEEE-754 double — no rounding
        return float(value)
    return value


# -- update functions ----------------------------------------------------------------

_FUNCTION_KINDS = {"set": SetTo, "add": AddConstant, "mul": MultiplyBy}


def _encode_function(function: UpdateFunction) -> dict[str, Any]:
    if isinstance(function, SetTo):
        return {"kind": "set", "value": _plain_scalar(function.value)}
    if isinstance(function, AddConstant):
        return {"kind": "add", "value": _plain_scalar(function.delta)}
    if isinstance(function, MultiplyBy):
        return {"kind": "mul", "value": _plain_scalar(function.factor)}
    raise WireError(f"cannot encode update function {type(function).__name__}")


def _decode_function(payload: Any) -> UpdateFunction:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise WireError(f"malformed update-function payload: {payload!r}")
    kind = payload["kind"]
    cls = _FUNCTION_KINDS.get(kind)
    if cls is None:
        raise WireError(f"unknown update-function kind {kind!r}")
    return cls(payload.get("value"))


# -- what-if partials (no caller left in src/; perf/probes.py posts and times them) ----


def encode_what_if_partial(partial: WhatIfShardPartial) -> dict[str, Any]:
    return {
        "shard_index": partial.shard_index,
        "n_shards": partial.n_shards,
        "n_rows": partial.n_rows,
        "row_indices": encode_array(partial.row_indices),
        "count": encode_array(partial.count),
        "sum": _encode_optional(partial.sum),
        "meta": _plain_metadata(partial.meta),
        "scope_mask": _encode_optional(partial.scope_mask),
        "block_of_row": _encode_optional(partial.block_of_row),
        "n_blocks": partial.n_blocks,
        "term_rows": _encode_optional(partial.term_rows),
    }


def decode_what_if_partial(payload: Any) -> WhatIfShardPartial:
    if not isinstance(payload, dict):
        raise WireError(f"what-if partial must be an object, got {type(payload).__name__}")
    try:
        return WhatIfShardPartial(
            shard_index=int(payload["shard_index"]),
            n_shards=int(payload["n_shards"]),
            n_rows=int(payload["n_rows"]),
            row_indices=decode_array(payload["row_indices"]),
            count=decode_array(payload["count"]),
            sum=_decode_optional(payload.get("sum")),
            meta=dict(payload.get("meta") or {}),
            scope_mask=_decode_optional(payload.get("scope_mask")),
            block_of_row=_decode_optional(payload.get("block_of_row")),
            n_blocks=None if payload.get("n_blocks") is None else int(payload["n_blocks"]),
            term_rows=_decode_optional(payload.get("term_rows")),
        )
    except KeyError as error:
        raise WireError(f"what-if partial missing field {error}") from None


# -- answers -------------------------------------------------------------------------

#: every WhatIfResult field but the per-block arrays and the node's own clock
_ANSWER_FIELDS = (
    "value", "aggregate", "output_attribute", "variant", "n_view_tuples",
    "n_scope_tuples", "n_blocks", "expected_qualifying_count",
)
#: every scalar HowToResult field but the node's own clock
_HOW_TO_FIELDS = (
    "objective_value", "baseline_value", "maximize", "verified_value",
    "n_candidates", "n_ip_variables", "n_ip_constraints", "solver_status",
)


def _encode_error(error: BaseException) -> dict[str, Any]:
    status, envelope = envelope_for(error)
    return {"status": status, "error": envelope.to_json()}


def _decode_error(payload: dict[str, Any]) -> ApiError:
    return ApiError(int(payload["status"]), ErrorEnvelope.from_json(payload["error"]))


def _plain_metadata(metadata: dict[str, Any]) -> dict[str, Any]:
    return {key: _plain_scalar(value) for key, value in metadata.items()}


def encode_what_if_answer(outcome: WhatIfResult | BaseException) -> dict[str, Any]:
    """One item of an answers leg: the scalar result, or why there is none."""
    if isinstance(outcome, BaseException):
        return _encode_error(outcome)
    answer = {name: _plain_scalar(getattr(outcome, name)) for name in _ANSWER_FIELDS}
    answer["backdoor_set"] = list(outcome.backdoor_set)
    answer["metadata"] = _plain_metadata(outcome.metadata)
    return answer


def decode_what_if_answer(payload: Any) -> WhatIfResult | ApiError:
    """The node's :class:`WhatIfResult`, or its error as a raisable ``ApiError``."""
    if not isinstance(payload, dict):
        raise WireError(f"what-if answer must be an object, got {type(payload).__name__}")
    try:
        if "error" in payload:
            return _decode_error(payload)
        return WhatIfResult(
            **{name: payload[name] for name in _ANSWER_FIELDS},
            backdoor_set=tuple(payload["backdoor_set"]),
            metadata=dict(payload["metadata"]),
        )
    except KeyError as error:
        raise WireError(f"what-if answer missing field {error}") from None


def encode_how_to_answer(outcome: HowToResult | BaseException) -> dict[str, Any]:
    """One how-to item of an answers leg: scalars plus the chosen updates."""
    if isinstance(outcome, BaseException):
        return _encode_error(outcome)
    answer = {name: _plain_scalar(getattr(outcome, name)) for name in _HOW_TO_FIELDS}
    answer["recommended_updates"] = [
        {"attribute": update.attribute, "function": _encode_function(update.function)}
        for update in outcome.recommended_updates
    ]
    answer["per_attribute_choices"] = dict(outcome.per_attribute_choices)
    answer["metadata"] = _plain_metadata(outcome.metadata)
    return answer


def decode_how_to_answer(payload: Any) -> HowToResult | ApiError:
    """The node's :class:`HowToResult`, or its error as a raisable ``ApiError``."""
    if not isinstance(payload, dict):
        raise WireError(f"how-to answer must be an object, got {type(payload).__name__}")
    try:
        if "error" in payload:
            return _decode_error(payload)
        return HowToResult(
            **{name: payload[name] for name in _HOW_TO_FIELDS},
            recommended_updates=[
                AttributeUpdate(update["attribute"], _decode_function(update["function"]))
                for update in payload["recommended_updates"]
            ],
            per_attribute_choices=dict(payload["per_attribute_choices"]),
            metadata=dict(payload["metadata"]),
        )
    except (KeyError, TypeError) as error:
        raise WireError(f"malformed how-to answer: {error!r}") from None
