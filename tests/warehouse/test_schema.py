"""StarSchema metadata: dimensions, hierarchies, resolution caches."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.scale import build_scale
from repro.relational.chunks import CHUNK_SIZE
from repro.relational.errors import SchemaError
from repro.warehouse import EMPTY_PATH, AttributeRef


class TestLookups:
    def test_dimension_by_name(self, aw_online):
        assert aw_online.dimension("Product").name == "Product"

    def test_unknown_dimension(self, aw_online):
        with pytest.raises(SchemaError):
            aw_online.dimension("Nope")

    def test_dimensions_of_table(self, aw_online):
        dims = aw_online.dimensions_of_table("DimGeography")
        assert [d.name for d in dims] == ["Customer"]

    def test_shared_table_in_two_dimensions(self, ebiz):
        dims = {d.name for d in ebiz.dimensions_of_table("LOCATION")}
        assert dims == {"Store", "Customer"}

    def test_groupby_attribute(self, aw_online):
        gb = aw_online.groupby_attribute("DimProduct", "DealerPrice")
        assert gb.is_numerical

    def test_groupby_attribute_missing(self, aw_online):
        with pytest.raises(SchemaError):
            aw_online.groupby_attribute("DimProduct", "Nope")


class TestHierarchyPosition:
    def test_mid_level(self, aw_online):
        ref = AttributeRef("DimProductSubcategory", "ProductSubcategoryName")
        dim, hierarchy, idx = aw_online.hierarchy_position(ref)
        assert dim.name == "Product"
        assert idx == 1

    def test_top_level(self, aw_online):
        ref = AttributeRef("DimProductCategory", "ProductCategoryName")
        _dim, hierarchy, idx = aw_online.hierarchy_position(ref)
        assert idx == len(hierarchy.levels) - 1

    def test_not_a_level(self, aw_online):
        assert aw_online.hierarchy_position(
            AttributeRef("DimProduct", "Color")) is None


class TestParentMap:
    def test_cross_table_mapping(self, aw_online):
        dim = aw_online.dimension("Product")
        hierarchy = dim.hierarchies[0]
        mapping = aw_online.parent_map(hierarchy, 1)  # subcat -> category
        assert mapping["Mountain Bikes"] == "Bikes"
        assert mapping["Helmets"] == "Accessories"

    def test_same_table_mapping(self, aw_online):
        dim = aw_online.dimension("Customer")
        hierarchy = dim.hierarchies[0]
        mapping = aw_online.parent_map(hierarchy, 0)  # city -> state
        assert mapping["San Jose"] == "California"

    def test_top_level_has_no_parent(self, aw_online):
        dim = aw_online.dimension("Customer")
        hierarchy = dim.hierarchies[0]
        with pytest.raises(SchemaError):
            aw_online.parent_map(hierarchy, len(hierarchy.levels) - 1)

    def test_cached(self, aw_online):
        dim = aw_online.dimension("Product")
        hierarchy = dim.hierarchies[0]
        assert aw_online.parent_map(hierarchy, 1) is \
            aw_online.parent_map(hierarchy, 1)


class TestResolution:
    def test_fact_vector_length(self, aw_online):
        gb = aw_online.groupby_attribute("DimProductCategory",
                                         "ProductCategoryName")
        vector = aw_online.groupby_vector(gb)
        assert len(vector) == aw_online.num_fact_rows

    def test_fact_vector_values(self, aw_online):
        gb = aw_online.groupby_attribute("DimProductCategory",
                                         "ProductCategoryName")
        values = set(aw_online.groupby_vector(gb))
        assert values <= {"Bikes", "Components", "Clothing", "Accessories"}

    def test_fact_vector_cached(self, aw_online):
        gb = aw_online.groupby_attribute("DimProduct", "Color")
        assert aw_online.groupby_vector(gb) is aw_online.groupby_vector(gb)

    def test_fact_chunks_keep_a_vector_only_for_plain_chunks(self):
        # an attribute only filters and groups read (a star-net ray's)
        # keeps just its one-byte dictionary codes; a plain chunk views
        # its vector, which fact_vector then shares instead of copying
        schema = build_scale(num_facts=CHUNK_SIZE + 50, seed=3)
        gb = schema.groupby_attribute("DimProduct", "CategoryName")
        chunks = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
        assert [c.encoding for c in chunks] == ["dict", "dict"]
        assert all(isinstance(c.codes, bytes) for c in chunks)
        assert [key[0] for key in schema._derived] == ["chunks"]
        assert schema.groupby_vector(gb) == [
            value for chunk in chunks for value in chunk.values()]
        plain = schema.fact_chunks(EMPTY_PATH, "OrderKey")
        assert plain[0].encoding == "plain"
        assert schema.fact_vector(EMPTY_PATH, "OrderKey") is plain[0].base

    def test_dimension_append_rebuilds_derived_data(self):
        schema = build_scale(num_facts=CHUNK_SIZE + 50, seed=3)
        hierarchy = schema.dimension("Product").hierarchies[0]
        gb = schema.groupby_attribute("DimProduct", "ProductName")
        before_map = schema.parent_map(hierarchy, 0)
        before = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
        schema.database.table("DimProduct").insert({
            "ProductKey": 999, "ProductName": "Appended Product",
            "Color": "Red", "CategoryName": "Clothing", "ListPrice": 1.0,
        })
        after_map = schema.parent_map(hierarchy, 0)
        assert "Appended Product" not in before_map
        assert after_map["Appended Product"] == "Clothing"
        after = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
        assert after is not before
        assert [list(c.values()) for c in after] == [
            list(c.values()) for c in before]

    @pytest.mark.parametrize("derive", ["chunks", "expression"])
    def test_concurrent_first_builds_agree(self, derive):
        def first_call(schema):
            if derive == "expression":
                measure = schema.measures["revenue"].expression
                return schema.expression_vector(str(measure), measure)
            gb = schema.groupby_attribute("DimDate", "MonthName")
            chunks = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
            return [list(chunk.values()) for chunk in chunks]

        schema = build_scale(num_facts=2 * CHUNK_SIZE, seed=3)
        barrier = threading.Barrier(4, timeout=30)

        def race(_):
            barrier.wait()
            return first_call(schema)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(race, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        expected = first_call(build_scale(num_facts=2 * CHUNK_SIZE, seed=3))
        assert results == [expected] * 4

    def test_measure_vector(self, aw_online):
        vector = aw_online.measure_vector("revenue")
        assert len(vector) == aw_online.num_fact_rows
        assert all(v > 0 for v in vector)

    def test_resolve_across_one_to_many_rejected(self, aw_online):
        gb = aw_online.groupby_attribute("DimGeography",
                                         "StateProvinceName")
        reversed_path = gb.path_from_fact.reversed()
        with pytest.raises(SchemaError):
            aw_online.resolve_column("DimGeography", reversed_path,
                                     "UnitPrice")


class TestValidation:
    def test_counts(self, aw_online, aw_reseller):
        # the shape statistics DESIGN.md promises
        assert len(aw_online.database.table_names) == 10
        assert len(aw_online.dimensions) == 6
        assert len(aw_reseller.database.table_names) == 13
        assert len(aw_reseller.dimensions) == 7

    def test_hierarchical_dimension_counts(self, aw_online, aw_reseller):
        assert sum(d.is_hierarchical for d in aw_online.dimensions) >= 3
        assert sum(d.is_hierarchical for d in aw_reseller.dimensions) >= 4

    def test_searchable_domains(self, aw_online, aw_reseller):
        for schema in (aw_online, aw_reseller):
            domains = sum(len(cols) for cols in schema.searchable.values())
            assert domains > 20
