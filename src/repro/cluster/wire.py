"""Bit-exact JSON wire forms for the cluster's internal partial protocol.

Shard servers answer ``POST /v1/partial`` with the same
:class:`~repro.shard.merge.WhatIfShardPartial` /
:class:`~repro.shard.merge.HowToShardPartial` objects the in-process worker
pool ships over pickle — but here they cross an HTTP boundary, so the arrays
are encoded as base64 of their raw little-endian bytes.  ``tobytes`` →
``frombuffer`` preserves every IEEE-754 bit pattern, which is what keeps the
coordinator's merged answers *bitwise* equal to a single unsharded service:
the merge protocol itself (:mod:`repro.shard.merge`) only ever concatenates
and scatters these arrays before running the unsharded reduction.

Scalars and ``meta`` dictionaries travel as plain JSON — Python's ``json``
module round-trips ``float`` (shortest-repr; ``NaN``/``±Infinity`` literals,
``-0.0`` and subnormals included) exactly, and every meta value the engines
emit is a JSON-safe str/int/list.

A what-if *answer* (``kind="answers"``: the node ran the whole query) is such
scalars only, no arrays; an item the node could not answer travels as the
``(status, envelope)`` of :func:`repro.api.core.envelope_for`.
"""

from __future__ import annotations

import base64
from typing import Any

import numpy as np

from ..api.core import ApiError, envelope_for
from ..api.schemas import ErrorEnvelope
from ..core.howto import CandidateUpdate
from ..core.results import WhatIfResult
from ..core.updates import AddConstant, MultiplyBy, SetTo, UpdateFunction
from ..exceptions import HypeRError
from ..shard.merge import HowToShardPartial, WhatIfShardPartial

__all__ = [
    "WireError",
    "decode_array",
    "decode_candidate",
    "decode_how_to_partial",
    "decode_verify",
    "decode_what_if_answer",
    "decode_what_if_partial",
    "encode_array",
    "encode_candidate",
    "encode_how_to_partial",
    "encode_verify",
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
    if not isinstance(payload, dict):
        raise WireError(f"array payload must be an object, got {type(payload).__name__}")
    try:
        dtype = np.dtype(payload["dtype"])
        shape = tuple(int(n) for n in payload["shape"])
        raw = base64.b64decode(payload["data"])
    except (KeyError, TypeError, ValueError) as error:
        raise WireError(f"malformed array payload: {error}") from None
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


# -- candidate updates ---------------------------------------------------------------

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


def encode_candidate(candidate: CandidateUpdate) -> dict[str, Any]:
    return {
        "attribute": candidate.attribute,
        "function": _encode_function(candidate.function),
        "label": candidate.label,
    }


def decode_candidate(payload: Any) -> CandidateUpdate:
    if not isinstance(payload, dict):
        raise WireError(f"candidate payload must be an object, got {type(payload).__name__}")
    try:
        return CandidateUpdate(
            attribute=payload["attribute"],
            function=_decode_function(payload["function"]),
            label=payload["label"],
        )
    except KeyError as error:
        raise WireError(f"candidate payload missing field {error}") from None


# -- what-if partials ----------------------------------------------------------------


def encode_what_if_partial(partial: WhatIfShardPartial) -> dict[str, Any]:
    return {
        "shard_index": partial.shard_index,
        "n_shards": partial.n_shards,
        "n_rows": partial.n_rows,
        "row_indices": encode_array(partial.row_indices),
        "count": encode_array(partial.count),
        "sum": _encode_optional(partial.sum),
        "meta": {key: _plain_scalar(value) for key, value in partial.meta.items()},
        "scope_mask": _encode_optional(partial.scope_mask),
        "block_of_row": _encode_optional(partial.block_of_row),
        "n_blocks": partial.n_blocks,
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
        )
    except KeyError as error:
        raise WireError(f"what-if partial missing field {error}") from None


# -- what-if answers -----------------------------------------------------------------

#: every WhatIfResult field but the per-block arrays and the node's own clock
_ANSWER_FIELDS = (
    "value", "aggregate", "output_attribute", "variant", "n_view_tuples",
    "n_scope_tuples", "n_blocks", "expected_qualifying_count",
)


def encode_what_if_answer(outcome: WhatIfResult | BaseException) -> dict[str, Any]:
    """One item of an answers leg: the scalar result, or why there is none."""
    if isinstance(outcome, BaseException):
        status, envelope = envelope_for(outcome)
        return {"status": status, "error": envelope.to_json()}
    answer = {name: _plain_scalar(getattr(outcome, name)) for name in _ANSWER_FIELDS}
    answer["backdoor_set"] = list(outcome.backdoor_set)
    answer["metadata"] = {
        key: _plain_scalar(value) for key, value in outcome.metadata.items()
    }
    return answer


def decode_what_if_answer(payload: Any) -> WhatIfResult | ApiError:
    """The node's :class:`WhatIfResult`, or its error as a raisable ``ApiError``."""
    if not isinstance(payload, dict):
        raise WireError(f"what-if answer must be an object, got {type(payload).__name__}")
    try:
        if "error" in payload:
            return ApiError(
                int(payload["status"]), ErrorEnvelope.from_json(payload["error"])
            )
        return WhatIfResult(
            **{name: payload[name] for name in _ANSWER_FIELDS},
            backdoor_set=tuple(payload["backdoor_set"]),
            metadata=dict(payload["metadata"]),
        )
    except KeyError as error:
        raise WireError(f"what-if answer missing field {error}") from None


# -- how-to partials -----------------------------------------------------------------


def encode_how_to_partial(partial: HowToShardPartial) -> dict[str, Any]:
    return {
        "shard_index": partial.shard_index,
        "n_shards": partial.n_shards,
        "n_rows": partial.n_rows,
        "row_indices": encode_array(partial.row_indices),
        "baseline_count": encode_array(partial.baseline_count),
        "baseline_sum": encode_array(partial.baseline_sum),
        "candidate_count": encode_array(partial.candidate_count),
        "candidate_sum": encode_array(partial.candidate_sum),
        "signature": [[attribute, label] for attribute, label in partial.signature],
        "meta": {key: _plain_scalar(value) for key, value in partial.meta.items()},
        "candidates": (
            None
            if partial.candidates is None
            else [encode_candidate(candidate) for candidate in partial.candidates]
        ),
    }


def decode_how_to_partial(payload: Any) -> HowToShardPartial:
    if not isinstance(payload, dict):
        raise WireError(f"how-to partial must be an object, got {type(payload).__name__}")
    try:
        raw_candidates = payload.get("candidates")
        return HowToShardPartial(
            shard_index=int(payload["shard_index"]),
            n_shards=int(payload["n_shards"]),
            n_rows=int(payload["n_rows"]),
            row_indices=decode_array(payload["row_indices"]),
            baseline_count=decode_array(payload["baseline_count"]),
            baseline_sum=decode_array(payload["baseline_sum"]),
            candidate_count=decode_array(payload["candidate_count"]),
            candidate_sum=decode_array(payload["candidate_sum"]),
            signature=tuple(
                (attribute, label) for attribute, label in payload["signature"]
            ),
            meta=dict(payload.get("meta") or {}),
            candidates=(
                None
                if raw_candidates is None
                else [decode_candidate(candidate) for candidate in raw_candidates]
            ),
        )
    except KeyError as error:
        raise WireError(f"how-to partial missing field {error}") from None


# -- how-to verification triples -----------------------------------------------------


def encode_verify(
    own: np.ndarray, count: np.ndarray, sum_: np.ndarray
) -> dict[str, Any]:
    """The shard's re-evaluation of the chosen combined update."""
    return {
        "own": encode_array(own),
        "count": encode_array(count),
        "sum": encode_array(sum_),
    }


def decode_verify(payload: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not isinstance(payload, dict):
        raise WireError(f"verify payload must be an object, got {type(payload).__name__}")
    try:
        return (
            decode_array(payload["own"]),
            decode_array(payload["count"]),
            decode_array(payload["sum"]),
        )
    except KeyError as error:
        raise WireError(f"verify payload missing field {error}") from None
