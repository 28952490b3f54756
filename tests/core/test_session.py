"""End-to-end KdapSession API."""

import json
import random
from dataclasses import dataclass, replace

import pytest

from repro.core import (
    BELLWETHER,
    SURPRISE,
    ExploreConfig,
    GenerationConfig,
    KdapSession,
    RankingMethod,
)
from repro.datasets import build_aw_online, build_scale
from repro.obs import Tracer, plan_digest, tracing_scope
from repro.relational.expressions import Col
from repro.resilience.budget import Budget
from repro.service.protocol import explore_payload
from repro.textindex.index import AttributeTextIndex
from repro.warehouse.schema import Measure

from ..counts import cache_counts


class TestDifferentiate:
    def test_ranked_descending(self, online_session):
        ranked = online_session.differentiate("California Mountain Bikes")
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_limit(self, online_session):
        assert len(online_session.differentiate("LCD Columbus",
                                                 limit=2)) <= 2

    def test_method_switch(self, online_session):
        standard = online_session.differentiate(
            "Mountain Tire", method=RankingMethod.STANDARD)
        baseline = online_session.differentiate(
            "Mountain Tire", method=RankingMethod.BASELINE)
        assert standard and baseline
        # the two methods assign different scores to the same candidates
        assert [s.score for s in standard] != [s.score for s in baseline]

    def test_no_interpretation(self, online_session):
        assert online_session.differentiate("qqqzz") == []


class TestExplore:
    def test_result_shape(self, online_session):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        result = online_session.explore(ranked[0].star_net)
        assert result.total_aggregate > 0
        assert result.subspace is result.interface.subspace
        assert result.interface.facets

    def test_interestingness_propagates(self, online_session):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        result = online_session.explore(ranked[0].star_net,
                                        interestingness=BELLWETHER)
        assert result.interface.facets

    @pytest.mark.parametrize("materialize", [False, True])
    def test_cache_counter_models_agree(self, aw_online, online_session,
                                        materialize):
        """The registry is the one plan-cache counter model; its counts
        for this session are pinned (a fused call's per-branch cache
        peek once counted in one model but not the other, and a branch
        miss was counted again as the fused plan's miss).  The third
        explore repeats the first, so it is two hits: the star net's
        rows and the built facet interface."""
        with KdapSession(aw_online, index=online_session.index,
                         materialize=materialize) as session:
            for query in ("California Mountain Bikes", "Road Bikes",
                          "California Mountain Bikes"):
                [scored] = session.differentiate(query, limit=1)
                session.explore(scored.star_net)
            stats = cache_counts(session.metrics)
            assert (stats["hits"], stats["misses"]) == (95, 50)


class TestSearch:
    def test_happy_path(self, online_session):
        result = online_session.search("California Mountain Bikes")
        assert result is not None
        assert result.star_net.size == 2
        assert result.total_aggregate > 0

    def test_none_on_unmatched(self, online_session):
        assert online_session.search("qqqzz") is None

    def test_custom_configs(self, online_session):
        result = online_session.search(
            "Road Bikes",
            explore_config=ExploreConfig(top_k_attributes=1,
                                         top_k_instances=2),
            generation_config=GenerationConfig(max_candidates=10),
        )
        assert result is not None
        for facet in result.interface.facets:
            promoted = sum(1 for a in facet.attributes if a.promoted)
            assert len(facet.attributes) <= max(1, promoted)


class TestIndexConstruction:
    def test_builds_index_from_schema(self, aw_online):
        session = KdapSession(aw_online)
        assert session.index.num_documents > 0

    def test_accepts_prebuilt_index(self, aw_online, online_session):
        session = KdapSession(aw_online, index=online_session.index)
        assert session.index is online_session.index


class TestSubspaceSizePreview:
    def test_preview_matches_evaluation(self, online_session, aw_engine):
        ranked = online_session.differentiate(
            "California Mountain Bikes", limit=5, preview_sizes=True)
        for scored in ranked:
            assert scored.subspace_size == len(
                aw_engine.evaluate(scored.star_net))

    def test_no_preview_by_default(self, online_session):
        ranked = online_session.differentiate("Road Bikes", limit=3)
        assert all(s.subspace_size is None for s in ranked)

    def test_repeated_preview_hits_plan_cache(self, online_session):
        online_session.differentiate("Columbus", limit=5,
                                     preview_sizes=True)
        before = cache_counts(online_session.metrics)
        again = online_session.differentiate("Columbus", limit=5,
                                             preview_sizes=True)
        after = cache_counts(online_session.metrics)
        assert after["hits"] - before["hits"] == len(again) > 0
        assert after["misses"] == before["misses"]

    def test_explore_after_preview_is_a_hit(self, aw_online):
        """A preview evaluates the star net's own plan, so exploring the
        previewed candidate reads its rows from the plan cache."""
        with KdapSession(aw_online) as session:
            [scored] = session.differentiate("California Mountain Bikes",
                                             limit=1, preview_sizes=True)
            assert len(scored.star_net.rays) > 1
            tracer = Tracer()
            with tracing_scope(tracer):
                result = session.explore(scored)
        assert len(result.subspace) == scored.subspace_size
        digest = plan_digest(scored.star_net.to_plan(aw_online))
        first = next(span for span in tracer.spans()
                     if span.name == "plan.materialize")
        assert first.tags.get("cached") is True
        assert first.tags["fp"] == digest
        assert not any(span.tags.get("fp") == digest
                       for span in tracer.spans()
                       if span.name.startswith("op."))

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("query", ["Road Bikes revenue>3000",
                                       "Road Bikes UnitPrice<=1000"])
    def test_predicate_preview_matches_evaluation(self, aw_online,
                                                  backend, query):
        with KdapSession(aw_online, backend=backend) as session:
            ranked = session.differentiate(query, limit=3,
                                           preview_sizes=True)
            assert ranked
            for scored in ranked:
                assert scored.star_net.measure_predicates
                assert scored.subspace_size == len(
                    session.engine.evaluate(scored.star_net))

    def test_preview_after_append(self):
        """An appended matching fact row shows up in the next preview."""
        schema = build_aw_online(num_customers=60, num_facts=1500, seed=11)
        with KdapSession(schema) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1,
                                             preview_sizes=True)
            net = scored.star_net
            subspace = session.engine.evaluate(net)
            assert scored.subspace_size == len(subspace) > 0
            fact = schema.database.table(schema.fact_table)
            row = fact.row(subspace.fact_rows[0])
            row[fact.primary_key] = max(
                fact.column_values(fact.primary_key)) + 1
            fact.insert(row)
            grown = scored.subspace_size + 1
            assert len(session.engine.evaluate(net)) == grown
            assert session.subspace_size(net) == grown
            [again] = session.differentiate("Mountain Bikes", limit=1,
                                            preview_sizes=True)
            assert again.subspace_size == grown

    def test_measure_predicate_preview(self, online_session, aw_engine):
        ranked = online_session.differentiate(
            "Road Bikes revenue>3000", limit=1, preview_sizes=True)
        scored = ranked[0]
        assert scored.subspace_size == len(
            aw_engine.evaluate(scored.star_net))


def _payload(result) -> str:
    """An explore's service payload, as the JSON the service sends."""
    return json.dumps(explore_payload(result), sort_keys=True)


def _facet_hits(tracer) -> int:
    """Facet-entry hits recorded in a trace."""
    return sum(1 for span in tracer.spans()
               if span.name == "plan.facets" and span.tags.get("cached"))


@pytest.fixture
def small():
    """A small AW_ONLINE of the test's own, free to grow."""
    return build_aw_online(num_customers=60, num_facts=1500, seed=11)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestFacetEntry:
    """The built facet interface of an explore is one plan-cache entry
    keyed by the star net's plan, the config, the interestingness measure
    and the hints at the data epoch: whatever the session answered
    before, an explore equals the same explore on a fresh session."""

    def test_repeat_is_one_hit(self, small, backend):
        with KdapSession(small, backend=backend) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1)
            first = session.explore(scored)
            before = cache_counts(session.metrics)
            tracer = Tracer()
            with tracing_scope(tracer):
                again = session.explore(scored)
            after = cache_counts(session.metrics)
        assert again.interface is first.interface
        assert again.subspace is again.interface.subspace
        # the star net's rows and the interface: nothing else is asked
        assert (after["hits"] - before["hits"],
                after["misses"] - before["misses"]) == (2, 0)
        assert _facet_hits(tracer) == 1

    def test_append_inside_the_subspace_moves_the_answer(self, small,
                                                          backend):
        with KdapSession(small, backend=backend) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1)
            before = session.explore(scored)
            fact = small.database.table(small.fact_table)
            row = fact.row(before.subspace.fact_rows[0])
            row[fact.primary_key] = max(
                fact.column_values(fact.primary_key)) + 1
            fact.insert(row)
            after = session.explore(scored)
        with KdapSession(small, backend=backend) as fresh:
            expected = fresh.explore(scored)
        assert len(after.subspace) == len(before.subspace) + 1
        assert after.total_aggregate > before.total_aggregate
        assert _payload(after) == _payload(expected)

    def test_truncated_explore_is_not_stored(self, small, backend):
        with KdapSession(small, backend=backend) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1)
            # the rows are cached, so the budget stops facet building
            session.subspace_size(scored.star_net)
            partial = session.explore(scored, budget=Budget(max_rows=1))
            tracer = Tracer()
            with tracing_scope(tracer):
                full = session.explore(scored)
        with KdapSession(small, backend=backend) as fresh:
            expected = fresh.explore(scored)
        assert partial.is_partial and not partial.interface.facets
        assert _facet_hits(tracer) == 0
        assert not full.is_partial and full.interface.facets
        assert _payload(full) == _payload(expected)

    def test_numeric_facets_note_rides_on_a_hit(self, small, backend):
        small.measures["avg_price"] = Measure("avg_price", Col("UnitPrice"),
                                              "avg")
        config = ExploreConfig(measure_name="avg_price")
        with KdapSession(small, backend=backend) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1)
            notes = []
            for _ in range(2):
                tracer = Tracer()
                with tracing_scope(tracer):
                    result = session.explore(
                        scored, config=config,
                        budget=Budget(deadline_ms=600_000))
                notes.append(result.diagnostics.notes)
        assert _facet_hits(tracer) == 1
        assert any("numeric facets omitted" in note and "avg_price" in note
                   for note in notes[1])
        assert notes[0] == notes[1]

    def test_each_variant_is_its_own_entry(self, small, backend):
        """SURPRISE and BELLWETHER, a measure hint, a group-by hint and a
        "top 3" modifier, explored one after another in one session,
        each answer what they answer alone on a fresh session."""
        small.measures["quantity"] = Measure("quantity", Col("Quantity"))
        with KdapSession(small, backend=backend) as session:
            [plain] = session.differentiate("Mountain Bikes", limit=1)
            [by_month] = session.differentiate("Mountain Bikes by month",
                                               limit=1)
            [top] = session.differentiate("Mountain Bikes by month top 3",
                                          limit=1)
            quantity = replace(plain.interpretation, measures=("quantity",))
            calls = [(plain, SURPRISE), (plain, BELLWETHER),
                     (quantity, SURPRISE), (by_month, SURPRISE),
                     (top, SURPRISE)]
            together = [_payload(session.explore(net, interestingness=m))
                        for net, m in calls]
            index = session.index
        alone = []
        for net, measure in calls:
            with KdapSession(small, index=index, backend=backend) as fresh:
                alone.append(_payload(fresh.explore(
                    net, interestingness=measure)))
        assert together == alone
        assert len(set(together)) == len(calls)

    def test_a_modifier_leaves_the_entry_unchanged(self, small, backend):
        """"top 3" reshapes the entry it shares with "by month" (same net,
        same hints) after the lookup, never the cached interface."""
        with KdapSession(small, backend=backend) as session:
            [top] = session.differentiate("Mountain Bikes by month top 3",
                                          limit=1)
            [by_month] = session.differentiate("Mountain Bikes by month",
                                               limit=1)
            shaped = session.explore(top)
            tracer = Tracer()
            with tracing_scope(tracer):
                unshaped = session.explore(by_month)
            index = session.index
        with KdapSession(small, index=index, backend=backend) as fresh:
            expected = fresh.explore(by_month)
        assert _facet_hits(tracer) == 1
        assert _payload(unshaped) == _payload(expected)

        def months(result):
            facet = result.interface.facet("Date")
            [attribute] = [a for a in facet.attributes
                           if a.attribute.ref.column == "MonthName"]
            return attribute.entries

        assert len(months(shaped)) == 3 < len(months(unshaped))

    def test_a_callers_own_measure_is_built_every_time(self, small,
                                                       backend):
        """A measure written as a plain ``@dataclass`` does not hash, so
        it is not keyed: each explore builds its interface, no facet
        entry is looked up, and the answer is a fresh session's."""

        @dataclass
        class Anticorrelation:
            name: str = "anticorrelation"

            def score_series(self, x, y):
                return SURPRISE.score_series(x, y)

        with KdapSession(small, backend=backend) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1)
            first = session.explore(scored, interestingness=Anticorrelation())
            tracer = Tracer()
            with tracing_scope(tracer):
                again = session.explore(scored,
                                        interestingness=Anticorrelation())
            index = session.index
        with KdapSession(small, index=index, backend=backend) as fresh:
            expected = fresh.explore(scored)
        assert again.interface is not first.interface
        assert _facet_hits(tracer) == 0
        assert any(span.name == "facets" for span in tracer.spans())
        assert _payload(again) == _payload(expected)


#: the 8 texts of the ledger's ``scale.explore_hot`` rotation
#: (benchmarks/ledger/workloads.py, ``hot_population``)
HOT_TEXTS = ("022 December", "021 September", "Black September",
             "Yellow April", "Bikes April", "Red April 2004",
             "White September 2004", "Accessories October 2003")


@pytest.fixture(scope="module")
def scale_star():
    schema = build_scale(num_facts=3000, seed=7)
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    return schema, index


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_warm_answers_equal_cold_ones_in_any_order(scale_star, backend):
    """Cache-state independence: after a warm rotation, the hot texts in
    a shuffled order answer byte for byte what each answers on a cold
    session of its own."""
    schema, index = scale_star

    def explore(session, text) -> str:
        ranked = session.differentiate(text, limit=5)
        return _payload(session.explore(ranked[0]))

    cold = {}
    for text in HOT_TEXTS:
        with KdapSession(schema, index=index, backend=backend) as session:
            cold[text] = explore(session, text)
    shuffled = list(HOT_TEXTS)
    random.Random(42).shuffle(shuffled)
    with KdapSession(schema, index=index, backend=backend) as session:
        for text in HOT_TEXTS:
            explore(session, text)
        tracer = Tracer()
        with tracing_scope(tracer):
            warm = {text: explore(session, text) for text in shuffled}
    assert _facet_hits(tracer) == len(HOT_TEXTS)
    assert warm == cold
