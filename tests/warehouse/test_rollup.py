"""Hierarchy generalisation, and the reference oracle's star-join
primitives (the semi-join chain ``src/`` no longer runs)."""

import pytest

from repro.warehouse import AttributeRef, generalize_values

from .subspace_oracle import select_rows_by_values, slice_facts


class TestSelectRows:
    def test_matching_rows(self, aw_online):
        ref = AttributeRef("DimGeography", "StateProvinceName")
        rows = select_rows_by_values(aw_online, ref, ["California"])
        table = aw_online.database.table("DimGeography")
        assert rows
        for rid in rows:
            assert table.value(rid, "StateProvinceName") == "California"

    def test_no_match(self, aw_online):
        ref = AttributeRef("DimGeography", "City")
        assert select_rows_by_values(aw_online, ref, ["Atlantis"]) == []


class TestSliceFacts:
    def test_semi_join_chain(self, aw_online):
        schema = aw_online
        ref = AttributeRef("DimProductSubcategory", "ProductSubcategoryName")
        rows = select_rows_by_values(schema, ref, ["Mountain Bikes"])
        gb = schema.groupby_attribute("DimProductSubcategory",
                                      "ProductSubcategoryName")
        path = gb.path_from_fact.reversed()
        facts = slice_facts(schema, "DimProductSubcategory", rows, path)
        # cross-check against the cached fact vector
        vector = schema.groupby_vector(gb)
        want = {r for r, v in enumerate(vector) if v == "Mountain Bikes"}
        assert facts == want

    def test_empty_selection_empty_facts(self, aw_online):
        gb = aw_online.groupby_attribute("DimProductSubcategory",
                                         "ProductSubcategoryName")
        path = gb.path_from_fact.reversed()
        assert slice_facts(aw_online, "DimProductSubcategory", [],
                           path) == set()

    def test_wrong_start_rejected(self, aw_online):
        gb = aw_online.groupby_attribute("DimProductSubcategory",
                                         "ProductSubcategoryName")
        path = gb.path_from_fact.reversed()
        with pytest.raises(ValueError):
            slice_facts(aw_online, "DimGeography", [0], path)

    def test_empty_path_from_fact_only(self, aw_online):
        from repro.warehouse import EMPTY_PATH
        facts = slice_facts(aw_online, aw_online.fact_table, [1, 2, 3],
                            EMPTY_PATH)
        assert facts == {1, 2, 3}
        with pytest.raises(ValueError):
            slice_facts(aw_online, "DimGeography", [0], EMPTY_PATH)


class TestGeneralizeValues:
    def test_city_to_state(self, aw_online):
        ref = AttributeRef("DimGeography", "City")
        result = generalize_values(aw_online, ref, ["San Jose", "Seattle"])
        assert result is not None
        parent_ref, parents = result
        assert parent_ref == AttributeRef("DimGeography",
                                          "StateProvinceName")
        assert parents == {"California", "Washington"}

    def test_subcategory_to_category_cross_table(self, aw_online):
        ref = AttributeRef("DimProductSubcategory",
                           "ProductSubcategoryName")
        result = generalize_values(aw_online, ref,
                                   ["Mountain Bikes", "Helmets"])
        parent_ref, parents = result
        assert parent_ref.table == "DimProductCategory"
        assert parents == {"Bikes", "Accessories"}

    def test_top_level_returns_none(self, aw_online):
        ref = AttributeRef("DimProductCategory", "ProductCategoryName")
        assert generalize_values(aw_online, ref, ["Bikes"]) is None

    def test_non_hierarchy_attribute_returns_none(self, aw_online):
        ref = AttributeRef("DimProduct", "Color")
        assert generalize_values(aw_online, ref, ["Black"]) is None

    def test_unknown_values_return_none(self, aw_online):
        ref = AttributeRef("DimGeography", "City")
        assert generalize_values(aw_online, ref, ["Atlantis"]) is None
