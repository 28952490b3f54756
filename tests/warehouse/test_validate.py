"""Schema quality checks."""

import pytest

from repro.datasets.scale import build_scale
from repro.relational import Database, Table, integer, text
from repro.warehouse import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    Hierarchy,
    Measure,
    StarSchema,
    path_from_fk_names,
)
from repro.relational.expressions import Col
from repro.warehouse.validate import validate_schema


class TestCleanSchemas:
    def test_generated_warehouses_validate(self, aw_online, aw_reseller,
                                           ebiz):
        for schema in (aw_online, aw_reseller, ebiz):
            assert validate_schema(schema) == []


def broken_schema(*, bad_hierarchy=False, null_parent=False,
                  bad_searchable=False, bad_path=False,
                  empty_dimension=False):
    db = Database("Broken")
    dim_table = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
        text("Parent"),
        integer("Number"),
    ], primary_key="DimKey")
    rows = [
        {"DimKey": 1, "Name": "a", "Parent": "P1", "Number": 1},
        {"DimKey": 2, "Name": "b", "Parent": "P1", "Number": 2},
    ]
    if bad_hierarchy:
        # value "a" maps to two different parents
        rows.append({"DimKey": 3, "Name": "a", "Parent": "P2",
                     "Number": 3})
    if null_parent:
        # value "b" maps to a parent and to NULL
        rows.append({"DimKey": 4, "Name": "b", "Parent": None,
                     "Number": 4})
    dim_table.insert_many(rows)
    db.add_table(dim_table)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        integer("Amount"),
    ], primary_key="FactKey")
    fact.insert_many([{"FactKey": 1, "DimKey": 1, "Amount": 10}])
    db.add_table(fact)
    db.add_foreign_key("fk", "Fact", "DimKey", "Dim", "DimKey")

    good_path = path_from_fk_names(db, "Fact", ["fk"])
    path = good_path.reversed() if bad_path else good_path
    searchable_cols = ["Name", "Number"] if bad_searchable else ["Name"]
    dimensions = [Dimension(
        name="D",
        tables=("Dim",),
        hierarchies=(Hierarchy("H", (
            AttributeRef("Dim", "Name"),
            AttributeRef("Dim", "Parent"),
        )),),
        groupbys=(GroupByAttribute(AttributeRef("Dim", "Name"),
                                   AttributeKind.CATEGORICAL, path),),
    )]
    if empty_dimension:
        dimensions.append(Dimension(name="Empty", tables=("Dim",)))
    return StarSchema(
        database=db, fact_table="Fact", dimensions=dimensions,
        measures=[Measure("amount", Col("Amount"), "sum")],
        searchable={"Dim": searchable_cols},
    )


class TestDetection:
    def test_clean_fixture_is_clean(self):
        assert validate_schema(broken_schema()) == []

    def test_non_functional_hierarchy(self):
        warnings = validate_schema(broken_schema(bad_hierarchy=True))
        assert any("not functional" in w for w in warnings)

    def test_null_and_non_null_parents_are_not_functional(self):
        schema = broken_schema(null_parent=True)
        hierarchy = schema.dimension("D").hierarchies[0]
        assert schema.functional_parent_map(hierarchy, 0) is None
        assert validate_schema(schema) == [
            "hierarchy 'H' level Dim.Name is not functional: "
            "'b' -> 'P1' and None"]

    def test_examples_name_distinct_children(self):
        warnings = validate_schema(build_scale(num_facts=500, seed=3),
                                   max_examples=3)
        (warning,) = [w for w in warnings if "not functional" in w]
        examples = warning.split("is not functional: ")[1].split("; ")
        children = [example.split(" -> ")[0] for example in examples]
        assert children == ["'January'", "'February'", "'March'"]

    def test_non_text_searchable(self):
        warnings = validate_schema(broken_schema(bad_searchable=True))
        assert any("not text" in w for w in warnings)

    def test_reversed_groupby_path_rejected_at_construction(self):
        """StarSchema refuses mis-rooted paths outright; validate_schema's
        path checks cover schemas assembled by other means."""
        from repro.relational.errors import SchemaError

        with pytest.raises(SchemaError):
            broken_schema(bad_path=True)

    def test_empty_dimension(self):
        warnings = validate_schema(broken_schema(empty_dimension=True))
        assert any("no group-by candidates" in w for w in warnings)

    def test_dangling_fk_detected(self):
        schema = broken_schema()
        schema.database.table("Fact").insert(
            {"FactKey": 2, "DimKey": 99, "Amount": 5})
        warnings = validate_schema(schema)
        assert any("referential integrity" in w for w in warnings)

    def test_integrity_check_optional(self):
        schema = broken_schema()
        schema.database.table("Fact").insert(
            {"FactKey": 2, "DimKey": 99, "Amount": 5})
        assert validate_schema(schema, check_integrity=False) == []
