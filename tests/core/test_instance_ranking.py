"""Intra-attribute instance ranking (Eq. 2)."""

import pytest

from repro.core import rank_instances, rollup_subspace
from repro.core.instance_ranking import rank_instances_batch

from ..warehouse.subspace_oracle import domain
from .ranking_oracle import oracle_instance_score, oracle_rank_instances


@pytest.fixture(scope="module")
def context(online_session, aw_engine):
    ranked = online_session.differentiate("California Mountain Bikes",
                                          limit=1)
    net = ranked[0].star_net
    schema = online_session.schema
    subspace = aw_engine.evaluate(net)
    rollups = [rollup_subspace(schema, net, d, aw_engine)
               for d in net.hitted_dimensions]
    return schema, subspace, rollups


class TestInstanceScore:
    def test_shares_difference(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimProduct", "Color")
        ranked = rank_instances_batch(subspace, rollups[:1], [gb],
                                      "revenue")[gb]
        assert ranked
        for entry in ranked:
            want = oracle_instance_score(subspace, rollups[0], gb,
                                         entry.value, "revenue")
            assert entry.score == pytest.approx(want)
            # Eq. 2 is a difference of two shares, each in [0, 1]
            assert -1.0 <= entry.score <= 1.0

    def test_identity_rollup_scores_zero(self, context):
        schema, subspace, _rollups = context
        gb = schema.groupby_attribute("DimProduct", "Color")
        ranked = rank_instances_batch(subspace, [subspace], [gb],
                                      "revenue")[gb]
        assert sorted(r.value for r in ranked) == domain(subspace, gb)
        for entry in ranked:
            assert entry.score == pytest.approx(0.0)
            assert oracle_instance_score(subspace, subspace, gb, entry.value,
                                         "revenue") == pytest.approx(0.0)


class TestRankInstances:
    def test_sorted_by_abs_score(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimDate", "MonthName")
        ranked = rank_instances(subspace, rollups, gb, "revenue")
        magnitudes = [abs(r.score) for r in ranked]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_top_k(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimDate", "MonthName")
        ranked = rank_instances(subspace, rollups, gb, "revenue", top_k=3)
        assert len(ranked) == 3

    def test_aggregates_sum_to_subspace_total(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimDate", "MonthName")
        ranked = rank_instances(subspace, rollups, gb, "revenue")
        assert sum(r.aggregate for r in ranked) == pytest.approx(
            subspace.aggregate("revenue"))

    def test_combines_rollups_by_max_abs(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimDate", "MonthName")
        combined = {r.value: r.score
                    for r in rank_instances(subspace, rollups, gb,
                                            "revenue")}
        singles = [
            {r.value: r.score
             for r in rank_instances(subspace, [rollup], gb, "revenue")}
            for rollup in rollups
        ]
        for value, score in combined.items():
            candidates = [s[value] for s in singles]
            assert score == pytest.approx(max(candidates, key=abs))

    def test_deterministic(self, context):
        schema, subspace, rollups = context
        gb = schema.groupby_attribute("DimProduct", "ModelName")
        a = rank_instances(subspace, rollups, gb, "revenue")
        b = rank_instances(subspace, rollups, gb, "revenue")
        assert a == b

    def test_batch_equals_the_restricted_oracle(self, context):
        schema, subspace, rollups = context
        gbs = [schema.groupby_attribute("DimDate", "MonthName"),
               schema.groupby_attribute("DimProduct", "Color")]
        batch = rank_instances_batch(subspace, rollups, gbs, "revenue")
        for gb in gbs:
            want = oracle_rank_instances(subspace, rollups, gb, "revenue")
            got = {r.value: (r.aggregate, r.score) for r in batch[gb]}
            assert got.keys() == want.keys()
            for value, pair in want.items():
                assert got[value] == pytest.approx(pair)
