"""Hierarchical spans: nesting, error tags, no-op path, Chrome export."""

import pytest

from repro.obs.tracer import (
    NOOP,
    NOOP_SPAN,
    Tracer,
    current_span,
    current_tracer,
    op_span,
    plan_digest,
    tracing_scope,
)
from repro.plan.nodes import AttrKey, Filter, Scan
from repro.warehouse.graph import EMPTY_PATH


class TestNesting:
    def test_spans_nest_by_lexical_scope(self):
        tracer = Tracer()
        with tracing_scope(tracer):
            with tracer.span("outer") as outer:
                with tracer.span("inner", depth=2) as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in outer.children] == ["inner"]
        assert inner.parent is outer
        assert inner.tags["depth"] == 2

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracing_scope(tracer):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_durations_are_inclusive(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        assert parent.duration_s >= child.duration_s

    def test_to_tree_round_trips_structure(self):
        tracer = Tracer()
        with tracing_scope(tracer):
            with tracer.span("a", q="x"):
                with tracer.span("b"):
                    pass
        (root,) = tracer.to_tree()
        assert root["name"] == "a"
        assert root["tags"] == {"q": "x"}
        assert [c["name"] for c in root["children"]] == ["b"]

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing") as span:
                raise ValueError("boom")
        assert span.error == "ValueError: boom"
        assert "boom" in span.tags["error"]
        assert span.duration_s > 0  # closed despite the exception

    def test_nested_scope_with_new_tracer_reroots(self):
        """A span opened under an inner tracing scope must not leak into
        the outer tracer's tree (the EXPLAIN-inside-traced-CLI case)."""
        outer, inner = Tracer(), Tracer()
        with tracing_scope(outer), outer.span("outer"):
            with tracing_scope(inner), inner.span("inner"):
                pass
        assert [r.name for r in outer.roots] == ["outer"]
        assert not outer.roots[0].children
        assert [r.name for r in inner.roots] == ["inner"]


class TestNoopPath:
    def test_ambient_tracer_defaults_to_noop(self):
        assert current_tracer() is NOOP
        assert not NOOP.enabled

    def test_noop_span_is_a_shared_singleton(self):
        first = NOOP.span("anything", key="value")
        assert first is NOOP_SPAN
        with first as span:
            span.set_tag("k", 1)  # must be accepted and dropped
        assert NOOP.to_tree() == []
        assert NOOP.to_chrome_trace()["traceEvents"] == []

    def test_op_span_skips_digest_when_disabled(self):
        node = Scan("FactInternetSales")
        assert op_span(node) is NOOP_SPAN

    def test_op_span_records_digest_when_enabled(self):
        node = Scan("FactInternetSales")
        tracer = Tracer()
        with tracing_scope(tracer):
            with op_span(node):
                pass
        (span,) = tracer.roots
        assert span.name == "op.Scan"
        assert span.tags["fp"] == plan_digest(node)

    def test_tracing_scope_none_is_passthrough(self):
        with tracing_scope(None):
            assert current_tracer() is NOOP


class TestPlanDigest:
    def test_digest_is_stable_and_short(self):
        node = Scan("FactInternetSales")
        assert plan_digest(node) == plan_digest(Scan("FactInternetSales"))
        assert len(plan_digest(node)) == 12

    def test_digest_distinguishes_nodes(self):
        scan = Scan("FactInternetSales")
        ray = Filter(scan, attr=AttrKey("DimProduct", "Color", EMPTY_PATH),
                     values=("Red",))
        assert plan_digest(scan) != plan_digest(ray)


class TestChromeExport:
    def test_complete_events_with_thread_metadata(self):
        tracer = Tracer()
        with tracing_scope(tracer):
            with tracer.span("query", q="bikes"):
                with tracer.span("op.Scan", fp="abc", rows=7):
                    pass
        trace = tracer.to_chrome_trace()
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"query", "op.Scan"}
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
        assert metadata and metadata[0]["name"] == "thread_name"
        # the one thread in play got the compact tid 0
        assert {e["tid"] for e in complete} == {0}
        args = {e["name"]: e["args"] for e in complete}
        assert args["op.Scan"]["rows"] == 7

    def test_child_ts_within_parent_window(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        by_name = {e["name"]: e
                   for e in tracer.to_chrome_trace()["traceEvents"]
                   if e["ph"] == "X"}
        parent, child = by_name["parent"], by_name["child"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1
