"""The versioned public API of the HypeR reproduction.

Three pieces, one contract (see ``docs/api.md``):

* :mod:`repro.api.schemas` — the **v1 wire schemas**: typed, strict
  request/response dataclasses every HTTP byte goes through.
* :mod:`repro.api.builder` — the **fluent query builder**: constructs
  :mod:`repro.lang` ASTs directly; builder-made and text-parsed queries
  fingerprint identically and share every service cache.
* :mod:`repro.api.calls` — the **SDK's sans-IO call core**: every verb
  written once, request encoding, bounded retries honoring ``Retry-After``,
  request deadlines, response decoding and the client error classes.  Two
  transports move its bytes: :mod:`repro.api.client` — :class:`HypeRClient`,
  one blocking keep-alive connection — and :mod:`repro.api.aclient` —
  :class:`AsyncHypeRClient`, a pooled asyncio client that is safe to share
  across tasks on one event loop.

:mod:`repro.api.endpoints` is the ``/v1/*`` endpoint table the HTTP door
mounts, over the sans-IO request core of :mod:`repro.api.core`.
"""

from .builder import (
    AggTerm,
    as_query_object,
    HowToBuilder,
    QueryBuilder,
    WhatIfBuilder,
    add,
    avg,
    count,
    how_to,
    multiply,
    set_,
    sum_,
    what_if,
)
from .aclient import AsyncHypeRClient
from .client import (
    ApiStatusError,
    DeadlineExceeded,
    HypeRClient,
    HypeRClientError,
    OverloadedError,
    ServerDeadlineExceeded,
    TransportError,
)
from .schemas import (
    API_VERSION,
    BatchItem,
    BatchRequest,
    ErrorEnvelope,
    HowToAnswer,
    JobListAnswer,
    JobStatus,
    JobSubmitRequest,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
    WhatIfAnswer,
    WireFormatError,
    answer_from_json,
    answer_from_result,
)

__all__ = [
    "API_VERSION",
    "AggTerm",
    "as_query_object",
    "ApiStatusError",
    "AsyncHypeRClient",
    "BatchItem",
    "BatchRequest",
    "DeadlineExceeded",
    "ErrorEnvelope",
    "HowToAnswer",
    "HowToBuilder",
    "HypeRClient",
    "HypeRClientError",
    "JobListAnswer",
    "JobStatus",
    "JobSubmitRequest",
    "OverloadedError",
    "PrepareAnswer",
    "PrepareRequest",
    "QueryBuilder",
    "QueryRequest",
    "ServerDeadlineExceeded",
    "StatsSnapshot",
    "TransportError",
    "UpdateAnswer",
    "UpdateRequest",
    "WhatIfAnswer",
    "WhatIfBuilder",
    "WireFormatError",
    "add",
    "answer_from_json",
    "answer_from_result",
    "avg",
    "count",
    "how_to",
    "multiply",
    "set_",
    "sum_",
    "what_if",
]
