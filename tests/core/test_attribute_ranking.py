"""Roll-up partitioning and group-by attribute ranking (Eq. 1)."""

import pytest

from repro.core import (
    BELLWETHER,
    SURPRISE,
    attribute_score,
    ground_truth_series,
    numerical_series,
    pearson_correlation,
    rank_groupby_attributes,
    rollup_subspace,
)
from repro.core.attribute_ranking import candidate_scores, subspace_domain
from repro.warehouse import Subspace

from ..warehouse.subspace_oracle import domain
from .ranking_oracle import oracle_candidate_scores, oracle_categorical_series


@pytest.fixture(scope="module")
def california_bikes(online_session, aw_engine):
    """DS' and its two roll-up spaces for 'California Mountain Bikes'."""
    ranked = online_session.differentiate("California Mountain Bikes",
                                          limit=1)
    net = ranked[0].star_net
    schema = online_session.schema
    subspace = aw_engine.evaluate(net)
    rollups = {
        dim: rollup_subspace(schema, net, dim, aw_engine)
        for dim in net.hitted_dimensions
    }
    return schema, net, subspace, rollups


class TestRollupSubspace:
    def test_rollup_contains_subspace(self, california_bikes):
        _schema, _net, subspace, rollups = california_bikes
        for rollup in rollups.values():
            assert set(subspace.fact_rows) <= set(rollup.fact_rows)
            assert len(rollup) > len(subspace)

    def test_product_rollup_is_category(self, california_bikes):
        schema, _net, _subspace, rollups = california_bikes
        rollup = rollups["Product"]
        gb = schema.groupby_attribute("DimProductCategory",
                                      "ProductCategoryName")
        assert domain(rollup, gb) == ["Bikes"]

    def test_customer_rollup_is_country(self, california_bikes):
        schema, _net, _subspace, rollups = california_bikes
        rollup = rollups["Customer"]
        gb = schema.groupby_attribute("DimGeography", "CountryRegionName")
        assert domain(rollup, gb) == ["United States"]


class TestCategoricalSeries:
    def test_series_cover_subspace_domain(self, california_bikes):
        """DOM(DS', attr) is the key set of DS''s own partition, and the
        engine's scores equal the oracle's over series restricted to the
        row-by-row domain."""
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimProduct", "Color")
        x = subspace.partition_aggregates(gb, "revenue")
        assert subspace_domain(x) == domain(subspace, gb)
        categories, xs, ys = oracle_categorical_series(
            subspace, rollups["Product"], gb, "revenue")
        assert list(categories) == domain(subspace, gb)
        assert len(xs) == len(ys)
        got = candidate_scores(subspace, [rollups["Product"]], [gb],
                               "revenue", SURPRISE)
        assert got == pytest.approx(oracle_candidate_scores(
            subspace, [rollups["Product"]], [gb], "revenue", SURPRISE))

    def test_rollup_mass_at_least_subspace(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimProduct", "Color")
        x = subspace.partition_aggregates(gb, "revenue")
        y = rollups["Product"].partition_aggregates(gb, "revenue")
        for value in subspace_domain(x):
            assert y[value] >= x[value] - 1e-9


class TestNumericalSeries:
    def test_lengths_match(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimCustomer", "YearlyIncome")
        pair, buckets = numerical_series(subspace, rollups["Customer"], gb,
                                         "revenue", num_buckets=20)
        assert len(pair.subspace_series) == len(pair.rollup_series)
        assert len(buckets) == 20

    def test_convergence_to_ground_truth(self, california_bikes):
        """The §6.4 claim: with enough basic intervals the correlation
        equals the distinct-value ground truth."""
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimCustomer", "YearlyIncome")
        rollup = rollups["Customer"]
        truth = ground_truth_series(subspace, rollup, gb, "revenue")
        truth_corr = pearson_correlation(truth.subspace_series,
                                         truth.rollup_series)
        pair, _ = numerical_series(subspace, rollup, gb, "revenue",
                                   num_buckets=400)
        approx_corr = pearson_correlation(pair.subspace_series,
                                          pair.rollup_series)
        assert approx_corr == pytest.approx(truth_corr, abs=1e-6)

    def test_coarse_buckets_reduce_resolution(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimCustomer", "YearlyIncome")
        pair, _ = numerical_series(subspace, rollups["Customer"], gb,
                                   "revenue", num_buckets=3)
        assert len(pair.subspace_series) <= 3


class TestAttributeScore:
    def test_worst_case_combination(self, california_bikes):
        """With several roll-ups the maximum (most interesting) wins."""
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimDate", "MonthName")
        both = attribute_score(subspace, list(rollups.values()), gb,
                               "revenue", SURPRISE)
        singles = [
            attribute_score(subspace, [r], gb, "revenue", SURPRISE)
            for r in rollups.values()
        ]
        assert both == pytest.approx(max(singles))

    def test_surprise_and_bellwether_are_opposite(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        gb = schema.groupby_attribute("DimDate", "MonthName")
        rollup = [list(rollups.values())[0]]
        s = attribute_score(subspace, rollup, gb, "revenue", SURPRISE)
        b = attribute_score(subspace, rollup, gb, "revenue", BELLWETHER)
        assert s == pytest.approx(-b)

    def test_requires_rollups(self, california_bikes):
        schema, _net, subspace, _rollups = california_bikes
        gb = schema.groupby_attribute("DimDate", "MonthName")
        with pytest.raises(ValueError):
            attribute_score(subspace, [], gb, "revenue", SURPRISE)


class TestRanking:
    def test_top_k(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        candidates = schema.dimension("Date").groupbys
        ranked = rank_groupby_attributes(subspace, list(rollups.values()),
                                         candidates, "revenue", SURPRISE,
                                         top_k=2)
        assert len(ranked) == 2
        assert ranked[0].score >= ranked[1].score

    def test_scores_sorted(self, california_bikes):
        schema, _net, subspace, rollups = california_bikes
        candidates = schema.dimension("Customer").groupbys
        ranked = rank_groupby_attributes(subspace, list(rollups.values()),
                                         candidates, "revenue", SURPRISE)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_empty_subspace_fully_degenerate(self, online_session,
                                             aw_engine):
        schema = online_session.schema
        empty = Subspace.of(schema, [], "empty", engine=aw_engine)
        full = Subspace.full(schema, engine=aw_engine)
        gb = schema.groupby_attribute("DimDate", "MonthName")
        ranked = rank_groupby_attributes(empty, [full], [gb], "revenue",
                                         SURPRISE, top_k=5)
        assert ranked == []
