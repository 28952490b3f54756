"""Dynamic facet construction."""

import pytest

from repro.core import (
    BELLWETHER,
    ExploreConfig,
    build_facets,
    rollup_subspaces,
)
from repro.warehouse import AttributeKind


@pytest.fixture(scope="module")
def interface(online_session, aw_engine):
    ranked = online_session.differentiate("California Mountain Bikes",
                                          limit=1)
    net = ranked[0].star_net
    return net, build_facets(online_session.schema, net, engine=aw_engine)


class TestStructure:
    def test_facets_in_static_dimension_order(self, interface):
        _net, ui = interface
        names = [f.dimension for f in ui.facets]
        assert names == sorted(names)

    def test_total_aggregate_matches_subspace(self, interface):
        _net, ui = interface
        assert ui.total_aggregate == pytest.approx(
            ui.subspace.aggregate("revenue"))

    def test_facet_lookup(self, interface):
        _net, ui = interface
        assert ui.facet("Product").dimension == "Product"
        with pytest.raises(KeyError):
            ui.facet("Nope")

    def test_attribute_budget_respected(self, interface):
        _net, ui = interface
        config = ExploreConfig()
        for facet in ui.facets:
            promoted = sum(1 for a in facet.attributes if a.promoted)
            assert len(facet.attributes) <= max(config.top_k_attributes,
                                                promoted)

    def test_instances_capped(self, interface):
        _net, ui = interface
        config = ExploreConfig()
        for facet in ui.facets:
            for attr in facet.attributes:
                if attr.attribute.kind is AttributeKind.CATEGORICAL:
                    assert len(attr.entries) <= config.top_k_instances
                else:
                    assert len(attr.entries) <= config.display_intervals


class TestPromotion:
    def test_hit_attributes_promoted(self, interface):
        """Table 2: 'Mountain Bikes' is always selected for navigation."""
        _net, ui = interface
        product = ui.facet("Product")
        promoted = [a for a in product.attributes if a.promoted]
        assert any(
            a.attribute.ref.column == "ProductSubcategoryName"
            for a in promoted
        )
        subcat = next(a for a in promoted
                      if a.attribute.ref.column == "ProductSubcategoryName")
        assert any(e.label == "Mountain Bikes" for e in subcat.entries)

    def test_customer_state_promoted(self, interface):
        _net, ui = interface
        customer = ui.facet("Customer")
        promoted = [a for a in customer.attributes if a.promoted]
        assert any(a.attribute.ref.column == "StateProvinceName"
                   for a in promoted)

    def test_promoted_first(self, interface):
        _net, ui = interface
        for facet in ui.facets:
            flags = [a.promoted for a in facet.attributes]
            assert flags == sorted(flags, reverse=True)


class TestNumericalFacets:
    def test_dealer_price_intervals(self, online_session, aw_engine):
        """Table 2 shows DealerPrice as merged numeric ranges."""
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        net = ranked[0].star_net
        config = ExploreConfig(top_k_attributes=6, display_intervals=3)
        ui = build_facets(online_session.schema, net, config=config,
                          engine=aw_engine)
        product = ui.facet("Product")
        price = [a for a in product.attributes
                 if a.attribute.ref.column == "DealerPrice"]
        assert price, "DealerPrice should surface with a larger budget"
        entries = price[0].entries
        assert 1 <= len(entries) <= 3
        # intervals are contiguous and ordered
        for left, right in zip(entries, entries[1:]):
            assert left.value.high == pytest.approx(right.value.low)


class TestRollupSpaces:
    def test_one_per_hitted_dimension(self, online_session, aw_engine):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        net = ranked[0].star_net
        rollups = rollup_subspaces(online_session.schema, net, aw_engine)
        assert len(rollups) == len(net.hitted_dimensions)

    def test_full_space_when_no_hitted_dimension(self, online_session,
                                                 aw_engine):
        from repro.core import StarNet
        schema = online_session.schema
        rollups = rollup_subspaces(schema, StarNet(schema.fact_table, ()),
                                   aw_engine)
        assert len(rollups) == 1
        assert len(rollups[0]) == schema.num_fact_rows


class TestMeasures:
    def test_bellwether_changes_selection_scores(self, online_session,
                                                 aw_engine):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        net = ranked[0].star_net
        surprise_ui = build_facets(online_session.schema, net,
                                   engine=aw_engine)
        bell_ui = build_facets(online_session.schema, net,
                               interestingness=BELLWETHER, engine=aw_engine)
        s_scores = {
            (f.dimension, a.attribute.ref.column): a.score
            for f in surprise_ui.facets for a in f.attributes
            if not a.promoted
        }
        b_scores = {
            (f.dimension, a.attribute.ref.column): a.score
            for f in bell_ui.facets for a in f.attributes
            if not a.promoted
        }
        shared = set(s_scores) & set(b_scores)
        assert any(s_scores[k] != b_scores[k] for k in shared)


class TestIntervalExpansion:
    """§5.3.2: displayed intervals expand into sub-intervals."""

    @pytest.fixture(scope="class")
    def price_facet(self, online_session, aw_engine):
        from repro.core import rollup_subspaces

        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        net = ranked[0].star_net
        schema = online_session.schema
        subspace = aw_engine.evaluate(net)
        rollups = rollup_subspaces(schema, net, aw_engine)
        gb = schema.groupby_attribute("DimCustomer", "YearlyIncome")
        config = ExploreConfig(display_intervals=3)
        from repro.core.facets import _numerical_entries

        entries = _numerical_entries(subspace, rollups, gb, config)
        return schema, subspace, rollups, gb, entries, config

    def test_expansion_produces_subintervals(self, price_facet):
        from repro.core import expand_interval

        schema, subspace, rollups, gb, entries, config = price_facet
        assert entries
        parent = entries[0].value
        children = expand_interval(subspace, rollups, gb, parent, config)
        assert children
        for child in children:
            assert child.value.low >= parent.low - 1e-9
            assert child.value.high <= parent.high + 1e-9

    def test_expansion_mass_preserved(self, price_facet):
        from repro.core import expand_interval

        schema, subspace, rollups, gb, entries, config = price_facet
        parent = entries[0]
        children = expand_interval(subspace, rollups, gb, parent.value,
                                   config)
        total = sum(c.aggregate for c in children)
        assert total == pytest.approx(parent.aggregate, rel=1e-6)

    def test_expanding_empty_interval(self, price_facet):
        from repro.core import expand_interval
        from repro.core.bucketing import Interval

        schema, subspace, rollups, gb, _entries, config = price_facet
        empty = Interval(-100.0, -50.0)
        assert expand_interval(subspace, rollups, gb, empty, config) == ()
