"""End-to-end KdapSession API."""

import pytest

from repro.core import (
    BELLWETHER,
    ExploreConfig,
    GenerationConfig,
    KdapSession,
    RankingMethod,
)
from repro.datasets import build_aw_online

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
        for this session are pinned at what the retired per-engine
        counters and the registry agreed on (a fused call's per-branch
        cache peek once counted in one model but not the other, and a
        branch miss was counted again as the fused plan's miss)."""
        with KdapSession(aw_online, index=online_session.index,
                         materialize=materialize) as session:
            for query in ("California Mountain Bikes", "Road Bikes",
                          "California Mountain Bikes"):
                [scored] = session.differentiate(query, limit=1)
                session.explore(scored.star_net)
            stats = cache_counts(session.metrics)
            assert (stats["hits"], stats["misses"]) == (222, 48)


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

    def test_ray_cache_reused(self, online_session):
        online_session.differentiate("Columbus", limit=5,
                                     preview_sizes=True)
        before = len(online_session._ray_cache)
        online_session.differentiate("Columbus", limit=5,
                                     preview_sizes=True)
        assert len(online_session._ray_cache) == before

    def test_preview_after_append(self):
        """An appended matching fact row shows up in the next preview,
        and the ray memo does not keep the old epoch's entries."""
        schema = build_aw_online(num_customers=60, num_facts=1500, seed=11)
        with KdapSession(schema) as session:
            [scored] = session.differentiate("Mountain Bikes", limit=1,
                                             preview_sizes=True)
            memo_size = len(session._ray_cache)
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
            assert len(session._ray_cache) == memo_size

    def test_measure_predicate_preview(self, online_session, aw_engine):
        ranked = online_session.differentiate(
            "Road Bikes revenue>3000", limit=1, preview_sizes=True)
        scored = ranked[0]
        assert scored.subspace_size == len(
            aw_engine.evaluate(scored.star_net))
