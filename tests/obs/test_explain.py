"""EXPLAIN ANALYZE: plan trees annotated with actual execution stats."""

import json

import pytest

from repro.core import KdapSession
from repro.datasets import build_aw_online
from repro.obs import Tracer, tracing_scope
from repro.obs.explain import render_plan, render_span_tree


@pytest.fixture(scope="module")
def schema():
    return build_aw_online(num_facts=2000, seed=42)


class TestExplainMemory:
    def test_annotates_every_plan_node_with_actuals(self, schema):
        with KdapSession(schema) as session:
            result = session.explain("Road Bikes")
        assert result is not None
        assert result.backend == "memory"
        assert "Road" in result.interpretation
        # the subspace plan is the rays' attribute filters over a
        # fact-table scan, and every node on the spine actually ran
        node, kinds = result.plan, []
        while True:
            kinds.append(node.kind)
            assert node.profile.calls >= 1, f"{node.kind} never ran"
            assert not node.profile.pushed_to_sql
            if not node.children:
                break
            (node,) = node.children
        assert kinds[0] == "Filter" and kinds[-1] == "Scan"
        assert node.profile.rows > 0

    def test_total_aggregate_plan_present(self, schema):
        with KdapSession(schema) as session:
            result = session.explain("Road Bikes")
        assert result.total_plan is not None
        assert result.total_plan.kind == "MultiGroupAggregate"
        assert result.total_plan.profile.calls >= 1

    def test_render_contains_tree_and_phases(self, schema):
        with KdapSession(schema) as session:
            text = session.explain("Road Bikes").render()
        assert "subspace plan (actual):" in text
        assert "phase breakdown:" in text
        assert "calls=" in text and "rows=" in text
        assert "differentiate" in text and "explore" in text

    def test_as_dict_is_json_serialisable(self, schema):
        with KdapSession(schema) as session:
            payload = session.explain("Road Bikes").as_dict()
        encoded = json.loads(json.dumps(payload))
        assert encoded["backend"] == "memory"
        assert encoded["plan"]["calls"] >= 1
        assert encoded["spans"], "span tree missing"

    def test_pick_selects_interpretation(self, schema):
        with KdapSession(schema) as session:
            first = session.explain("Road Bikes", pick=1)
            second = session.explain("Road Bikes", pick=2)
        assert first.interpretation != second.interpretation

    def test_pick_out_of_range_returns_none(self, schema):
        with KdapSession(schema) as session:
            assert session.explain("Road Bikes", pick=99) is None
        with KdapSession(schema) as session:
            with pytest.raises(ValueError):
                session.explain("Road Bikes", pick=0)

    def test_reuses_ambient_tracer(self, schema):
        tracer = Tracer()
        with KdapSession(schema) as session:
            with tracing_scope(tracer):
                result = session.explain("Road Bikes")
        assert result.tracer is tracer
        names = {span.name for span in tracer.spans()}
        assert {"query", "differentiate", "explore"} <= names


class TestExplainSqlite:
    def test_pushed_down_nodes_are_marked(self, schema):
        with KdapSession(schema, backend="sqlite") as session:
            result = session.explain("Road Bikes")
        assert result.backend == "sqlite"
        # the root ran as one statement; nodes below it were compiled
        # into the SQL rather than executed individually
        assert result.plan.profile.calls >= 1
        descendants = []
        stack = list(result.plan.children)
        while stack:
            node = stack.pop()
            descendants.append(node)
            stack.extend(node.children)
        assert descendants
        assert all(node.profile.pushed_to_sql for node in descendants)
        rendered = render_plan(result.plan)
        assert "[in SQL]" in rendered

    def test_backends_agree_on_plan_shape(self, schema):
        with KdapSession(schema) as memory_session:
            memory_plan = memory_session.explain("Road Bikes").plan
        with KdapSession(schema, backend="sqlite") as sqlite_session:
            sqlite_plan = sqlite_session.explain("Road Bikes").plan

        def shape(node):
            return (node.kind, tuple(shape(c) for c in node.children))

        assert shape(memory_plan) == shape(sqlite_plan)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_shared_leaves_count_only_their_own_runs(schema, backend):
    """Sibling plans share leaves (every aggregate over DS′ reads the
    same ``RowSet``, every ray filter over the fact table the same
    ``Scan``), so a leaf counts only the runs nested under its parent's:
    one each, not the sum over the explored facets."""
    with KdapSession(schema, backend=backend) as session:
        result = session.explain("Road Bikes")
    assert result.plan.profile.calls == 1
    assert result.total_plan.profile.calls == 1
    (scan,) = result.plan.children
    (rowset,) = result.total_plan.children
    for leaf in (scan, rowset):
        assert leaf.profile.calls == 1
        assert leaf.profile.pushed_to_sql == (backend == "sqlite")
    if backend == "memory":
        assert scan.profile.rows == schema.num_fact_rows
        assert rowset.profile.rows == result.plan.profile.rows


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_explain_after_explore_shows_the_facet_hit(schema, backend):
    """An explore leaves its built facet interface in the plan cache, so
    explaining the same query next is a ``plan.facets`` hit: nothing
    below it runs, and the total-aggregate node, answered with the rest
    of the interface, reads as a cache hit that never executed."""
    with KdapSession(schema, backend=backend) as session:
        session.search("Road Bikes")
        result = session.explain("Road Bikes")
    [marker] = [span for span in result.tracer.spans()
                if span.name == "plan.facets"]
    assert marker.tags["cached"] is True
    assert "plan.facets" in result.render()
    assert not any(span.name.startswith("op.")
                   for span in result.tracer.spans())
    total = result.total_plan
    assert (total.profile.calls, total.profile.cache_hits) == (0, 1)
    assert render_plan(total).splitlines()[0].endswith(
        "(calls=0 rows=0 batches=0 seconds=0.000000 cache_hits=1)")


class TestRenderSpanTree:
    def test_elides_long_sibling_lists(self):
        tree = [{
            "name": "parent", "seconds": 0.1, "thread": 0,
            "children": [{"name": f"child{i}", "seconds": 0.001,
                          "thread": 0} for i in range(15)],
        }]
        text = render_span_tree(tree, max_children=10)
        assert "child0" in text
        assert "child14" not in text
        assert "(+5 more spans)" in text

    def test_tags_render_without_fp_noise(self):
        tree = [{"name": "op.Scan", "seconds": 0.002, "thread": 0,
                 "tags": {"fp": "abcdef", "rows": 42}}]
        text = render_span_tree(tree)
        assert "rows=42" in text
        assert "abcdef" not in text
