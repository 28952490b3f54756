"""End-to-end scenarios lifted directly from the paper's narrative."""

import pytest

from repro.core import ExploreConfig, build_facets


class TestExample31ColumbusLcd:
    """Example 3.1: the 'Columbus LCD' ambiguity fan-out on EBiz."""

    @pytest.fixture(scope="class")
    def ranked(self, ebiz_session):
        return ebiz_session.differentiate("Columbus LCD", limit=20)

    def test_multiple_interpretations(self, ranked):
        assert len(ranked) >= 4

    def test_columbus_ambiguity_covered(self, ranked):
        columbus_domains = set()
        for scored in ranked:
            for ray in scored.star_net.rays:
                if "Columbus" in " ".join(ray.hit_group.values):
                    columbus_domains.add(
                        (ray.hit_group.domain, ray.dimension))
        # city via customer, city via store, and the holiday reading
        assert (("LOCATION", "City"), "Customer") in columbus_domains
        assert (("LOCATION", "City"), "Store") in columbus_domains
        assert any(domain == ("HOLIDAY", "Event")
                   for domain, _d in columbus_domains)

    def test_lcd_attribute_instance_ambiguity(self, ranked):
        lcd_domains = set()
        for scored in ranked:
            for ray in scored.star_net.rays:
                if any("LCD" in v for v in ray.hit_group.values):
                    lcd_domains.add(ray.hit_group.domain)
        # LCD hits both the group level and the product level
        assert ("PGROUP", "GroupName") in lcd_domains
        assert ("PRODUCT", "ProductName") in lcd_domains


class TestTable1CaliforniaMountainBikes:
    """Table 1: top star nets for 'California Mountain Bikes'."""

    @pytest.fixture(scope="class")
    def ranked(self, online_session):
        return online_session.differentiate("California Mountain Bikes",
                                            limit=10)

    def test_intended_interpretation_is_top1(self, ranked):
        top = ranked[0].star_net
        domains = {r.hit_group.domain for r in top.rays}
        assert domains == {
            ("DimGeography", "StateProvinceName"),
            ("DimProductSubcategory", "ProductSubcategoryName"),
        }
        values = {v for r in top.rays for v in r.hit_group.values}
        assert values == {"California", "Mountain Bikes"}

    def test_california_street_interpretation_present(self, ranked):
        """Table 1 row 2: the street-address reading of 'California'."""
        assert any(
            any(r.hit_group.domain == ("DimCustomer", "AddressLine1")
                for r in scored.star_net.rays)
            for scored in ranked
        )

    def test_scores_strictly_ordered(self, ranked):
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestTable2Facets:
    """Table 2: the Product-dimension facet for the chosen star net."""

    @pytest.fixture(scope="class")
    def product_facet(self, online_session):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=1)
        config = ExploreConfig(top_k_attributes=4, display_intervals=3)
        ui = build_facets(online_session.schema, ranked[0].star_net,
                          config=config, engine=online_session.engine)
        return ui.facet("Product")

    def test_subcategory_always_selected(self, product_facet):
        columns = [a.attribute.ref.column for a in product_facet.attributes]
        assert "ProductSubcategoryName" in columns

    def test_mix_of_categorical_and_numerical(self, product_facet):
        from repro.warehouse import AttributeKind
        kinds = {a.attribute.kind for a in product_facet.attributes}
        assert AttributeKind.CATEGORICAL in kinds

    def test_mountain_models_surface(self, product_facet):
        model_attr = [a for a in product_facet.attributes
                      if a.attribute.ref.column == "ModelName"]
        if model_attr:
            labels = {e.label for e in model_attr[0].entries}
            assert any(label.startswith("Mountain-") for label in labels)


class TestSydneyWorstCase:
    """§6.3: 'Sydney Helmet Discount' — Sydney collides with a customer
    first name, the paper's hardest query."""

    def test_both_readings_generated(self, online_session):
        ranked = online_session.differentiate("Sydney Helmet Discount",
                                              limit=20)
        sydney_domains = {
            ray.hit_group.domain
            for scored in ranked
            for ray in scored.star_net.rays
            if "Sydney" in ray.hit_group.values
        }
        assert ("DimGeography", "City") in sydney_domains
        assert ("DimCustomer", "FirstName") in sydney_domains


class TestSeattlePortland:
    """§4.2: 'Seattle Portland TV'-style cross-role interpretation exists
    (customers from one city buying in stores of another) on EBiz."""

    def test_cross_role_candidate(self, ebiz_session):
        ranked = ebiz_session.differentiate("Seattle Portland", limit=30)
        combos = {
            tuple(sorted((r.dimension or "") for r in s.star_net.rays))
            for s in ranked
        }
        assert ("Customer", "Store") in combos
