"""The versioned public API (``docs/api.md``): strict v1 wire schemas every HTTP
byte and ``--json`` payload goes through, a fluent query builder whose queries
fingerprint as parsed text does, the sans-IO request core under the ``/v1``
endpoint table the HTTP door mounts, and the SDK — one sans-IO call core under
a blocking and an asyncio transport.  Adding an endpoint is one table row, one
handler and one verb; golden fixtures under ``tests/api/fixtures/`` pin the
wire forms.
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
