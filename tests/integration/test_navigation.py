"""Navigation and robustness: drill-down loops, empty subspaces."""

import pytest

from repro.core import ExploreConfig


class TestDrillDown:
    @pytest.fixture(scope="class")
    def base(self, online_session):
        return online_session.search("Mountain Bikes")

    def test_drill_restricts_subspace(self, online_session, base):
        gb = online_session.schema.groupby_attribute(
            "DimGeography", "StateProvinceName")
        finer = online_session.drill_down(base, gb, "California")
        assert set(finer.subspace.fact_rows) <= set(base.subspace.fact_rows)
        assert len(finer.subspace) < len(base.subspace)

    def test_star_net_carried_over(self, online_session, base):
        gb = online_session.schema.groupby_attribute(
            "DimGeography", "StateProvinceName")
        finer = online_session.drill_down(base, gb, "California")
        assert finer.star_net is base.star_net

    def test_background_is_parent_space(self, online_session, base):
        """After drilling, instance scores measure deviation from the
        parent subspace, so shares are comparable against it."""
        gb = online_session.schema.groupby_attribute(
            "DimGeography", "StateProvinceName")
        finer = online_session.drill_down(base, gb, "California")
        assert finer.total_aggregate <= base.total_aggregate

    def test_repeated_drill(self, online_session, base):
        state = online_session.schema.groupby_attribute(
            "DimGeography", "StateProvinceName")
        color = online_session.schema.groupby_attribute(
            "DimProduct", "Color")
        step1 = online_session.drill_down(base, state, "California")
        step2 = online_session.drill_down(step1, color, "Silver")
        assert set(step2.subspace.fact_rows) <= \
            set(step1.subspace.fact_rows)
        assert not step2.subspace.is_empty

    def test_drill_to_empty_is_graceful(self, online_session, base):
        gb = online_session.schema.groupby_attribute(
            "DimProduct", "Color")
        finer = online_session.drill_down(base, gb, "Chartreuse")
        assert finer.subspace.is_empty
        assert finer.total_aggregate == 0.0


class TestEmptySubspaces:
    def test_contradictory_query_explores_gracefully(self, online_session):
        """'Sydney California Promotion': an Australian city AND a US
        state — a valid interpretation with an empty subspace."""
        result = online_session.search("Sydney California Promotion")
        assert result is not None
        assert result.subspace.is_empty
        assert result.total_aggregate == 0.0
        assert result.interface.facets == ()

    def test_empty_measure_filter(self, online_session):
        result = online_session.search("Road Bikes revenue>999999999")
        assert result is not None
        assert result.subspace.is_empty


class TestExploreConfigBudget:
    def test_zero_instances(self, online_session):
        result = online_session.search(
            "Road Bikes",
            explore_config=ExploreConfig(top_k_instances=0),
        )
        # numerical attributes may still render intervals; categorical
        # facets collapse, but nothing crashes
        assert result is not None
