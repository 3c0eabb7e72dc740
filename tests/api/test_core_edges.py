"""The door's request core at its edges: body encodings, header parsing, a
malformed deadline or route row, and the fluent builders' less used verbs."""

from __future__ import annotations

import gzip

import pytest

from repro.api import builder
from repro.api.builder import avg, how_to, what_if
from repro.api.core import (
    ApiRequest,
    Endpoint,
    PayloadError,
    RequestDeadline,
    accepts_gzip,
    decompress_body,
    stream_timeout_s,
)
from repro.api.schemas import WireFormatError, update_assignments
from repro.core.queries import LimitConstraint
from repro.exceptions import QuerySemanticsError


@pytest.mark.parametrize(
    "raw, encoding, status, message",
    [
        (b"{}", "br", 400, "unsupported Content-Encoding 'br'"),
        (b"not gzip", "gzip", 400, "malformed gzip body"),
        (gzip.compress(b"x" * 64), "gzip", 413, "decompressed body of 64 bytes exceeds"),
    ],
)
def test_a_body_encoding_is_refused_by_name(raw, encoding, status, message):
    with pytest.raises(PayloadError, match=message) as raised:
        decompress_body(raw, encoding, max_bytes=32)
    assert raised.value.status == status


@pytest.mark.parametrize(
    "header, accepted",
    [(None, False), ("br", False), ("gzip;q=0", False), ("gzip;q=x", True), ("*;q=0.5", True)],
)
def test_accept_encoding_admits_gzip_unless_its_quality_is_zero(header, accepted):
    assert accepts_gzip(header) is accepted


def test_request_fields_fall_back_to_their_defaults():
    assert stream_timeout_s("timeout_s=soon") == 30.0
    with pytest.raises(PayloadError, match="invalid deadline_ms 'soon'"):
        RequestDeadline.of({"deadline_ms": "soon"})
    assert ApiRequest("GET", "/v1/health", {}, None, lambda n: b"").client_id == "anon"
    with pytest.raises(ValueError, match="unknown lane 'slow'"):
        Endpoint("x", "GET", "/v1/x", None, lane="slow")


@pytest.mark.parametrize(
    "assignments, message",
    [
        ({1: {"A": [1.0]}}, "relation names must be strings"),
        ({"R": {1: [1.0]}}, "attribute names of relation 'R' must be strings"),
    ],
)
def test_an_update_with_a_non_string_name_is_refused(assignments, message):
    with pytest.raises(WireFormatError, match=message):
        update_assignments(assignments, lambda values, name: values)


def test_the_builders_less_used_verbs():
    traced = what_if().use("Credit").update(builder.set_("Status", 4)).output(avg("Credit"))
    assert traced.trace().build() == traced.build()
    query = (
        how_to().use("Credit").update_any("Status")
        .limit(LimitConstraint("Status", lower=1.0, upper=4.0))
        .with_aggregate("Mean", "Credit", "Age", "avg")
        .maximize(avg("Credit")).trace().build()
    )
    assert [agg.name for agg in query.use.aggregated] == ["Mean"]
    assert query.limits[0].upper == 4.0
    with pytest.raises(QuerySemanticsError, match="needs at least one attribute"):
        how_to().update_any()
    with pytest.raises(QuerySemanticsError, match="expected an aggregate term"):
        builder._as_agg_term(3)
