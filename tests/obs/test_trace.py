"""TraceContext / span semantics: no-op when inactive, nesting, wire shape."""

from __future__ import annotations

import pytest

from repro.obs.trace import (
    Span,
    TraceContext,
    activate,
    add_span,
    current_trace,
    format_span_tree,
    new_request_id,
    span,
)


class TestRequestId:
    def test_shape_and_uniqueness(self):
        a, b = new_request_id(), new_request_id()
        assert len(a) == 16
        int(a, 16)  # hex
        assert a != b

    def test_context_adopts_given_id(self):
        ctx = TraceContext("cafef00d")
        assert ctx.request_id == "cafef00d"
        assert ctx.root.meta == {"request_id": "cafef00d"}

    def test_context_mints_when_missing(self):
        assert len(TraceContext().request_id) == 16


class TestSpanNoOp:
    def test_span_yields_none_without_active_trace(self):
        assert current_trace() is None
        with span("anything", key="value") as recorded:
            assert recorded is None

    def test_add_span_is_noop_without_active_trace(self):
        add_span("orphan", 0.5)  # must not raise

    def test_activate_none_is_passthrough(self):
        with activate(None) as ctx:
            assert ctx is None
            with span("inner") as recorded:
                assert recorded is None


class TestNesting:
    def test_children_nest_under_the_enclosing_span(self):
        ctx = TraceContext("a" * 16)
        with activate(ctx):
            assert current_trace() is ctx
            with span("outer", stage=1) as outer:
                with span("inner") as inner:
                    pass
            with span("sibling"):
                pass
        assert current_trace() is None
        assert [child.name for child in ctx.root.children] == ["outer", "sibling"]
        assert [child.name for child in outer.children] == ["inner"]
        assert inner.children == []
        assert outer.meta == {"stage": 1}
        assert outer.duration_seconds >= inner.duration_seconds >= 0.0

    def test_add_span_attaches_premeasured_subtree(self):
        ctx = TraceContext()
        with activate(ctx):
            with span("shard.broadcast"):
                add_span(
                    "shard-worker[0]",
                    0.002,
                    meta={"shard": 0},
                    children=[{"name": "fit", "duration_ms": 1.5, "children": []}],
                )
        broadcast = ctx.root.children[0]
        worker = broadcast.children[0]
        assert worker.name == "shard-worker[0]"
        assert worker.duration_seconds == pytest.approx(0.002)
        assert worker.meta == {"shard": 0}
        assert worker.children[0].name == "fit"
        assert worker.children[0].duration_seconds == pytest.approx(0.0015)


class TestWireForm:
    def test_to_wire_shape(self):
        ctx = TraceContext("b" * 16)
        with activate(ctx):
            with span("parse"):
                pass
            with span("cache.result", hit=True):
                pass
        tree = ctx.to_wire()
        assert tree["name"] == "request"
        assert tree["meta"] == {"request_id": "b" * 16}
        assert tree["duration_ms"] > 0
        names = [child["name"] for child in tree["children"]]
        assert names == ["parse", "cache.result"]
        cache = tree["children"][1]
        assert cache["meta"] == {"hit": True}
        # empty meta is omitted, children key is always present
        parse = tree["children"][0]
        assert "meta" not in parse
        assert parse["children"] == []

    def test_finish_is_idempotent(self):
        ctx = TraceContext()
        ctx.finish()
        first = ctx.root.duration_seconds
        ctx.finish()
        assert ctx.root.duration_seconds == first
        assert ctx.to_wire()["duration_ms"] == round(1000 * first, 6)

    def test_span_to_dict_rounds_milliseconds(self):
        node = Span("x")
        node.duration_seconds = 0.0012345678
        assert node.to_dict()["duration_ms"] == 1.234568


class TestFormat:
    def test_tree_rendering(self):
        tree = {
            "name": "request",
            "duration_ms": 12.5,
            "meta": {"request_id": "abc"},
            "children": [
                {"name": "parse", "duration_ms": 0.25, "children": []},
                {
                    "name": "execute",
                    "duration_ms": 10.0,
                    "children": [
                        {
                            "name": "shard-worker[0]",
                            "duration_ms": 9.0,
                            "meta": {"shard": 0},
                            "children": [],
                        }
                    ],
                },
            ],
        }
        lines = format_span_tree(tree).splitlines()
        assert lines[0] == "request  12.500 ms  [request_id=abc]"
        assert lines[1] == "  - parse  0.250 ms"
        assert lines[2] == "  - execute  10.000 ms"
        assert lines[3] == "    - shard-worker[0]  9.000 ms  [shard=0]"


def test_an_added_span_keeps_its_shipped_children():
    ctx = TraceContext()
    with activate(ctx):
        add_span("worker", 0.002, children=[
            {"name": "leg", "duration_ms": 1.0, "children": [{"name": "kernel", "duration_ms": 0.5}]}
        ])
    (worker,) = ctx.to_wire()["children"]
    assert worker["children"][0]["children"][0]["name"] == "kernel"
