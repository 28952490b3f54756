"""OLAP navigation operations: slice, dice, drill-down, roll-up, pivot."""

import pytest

from repro.plan import QueryEngine
from repro.relational import Database, Table, float_, integer, text
from repro.relational.expressions import Col
from repro.warehouse import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    Measure,
    StarSchema,
    Subspace,
    path_from_fk_names,
)
from repro.warehouse.operations import (
    dice,
    drill_down,
    pivot,
    roll_up,
    slice_,
)

from .subspace_oracle import domain, pivot_cells


@pytest.fixture(scope="module")
def full(aw_online, aw_engine):
    return Subspace.full(aw_online, engine=aw_engine)


class TestSlice:
    def test_slice_restricts(self, aw_online, full):
        gb = aw_online.groupby_attribute("DimProductCategory",
                                         "ProductCategoryName")
        bikes = slice_(full, gb, "Bikes")
        assert 0 < len(bikes) < len(full)
        assert domain(bikes, gb) == ["Bikes"]

    def test_slice_no_match_empty(self, aw_online, full):
        gb = aw_online.groupby_attribute("DimProduct", "Color")
        assert slice_(full, gb, "Chartreuse").is_empty

    def test_slices_partition_the_space(self, aw_online, full):
        gb = aw_online.groupby_attribute("DimProductCategory",
                                         "ProductCategoryName")
        total = sum(len(slice_(full, gb, v)) for v in domain(full, gb))
        assert total == len(full)  # category is never NULL


class TestDice:
    def test_multi_attribute(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        color = aw_online.groupby_attribute("DimProduct", "Color")
        diced = dice(full, {cat: ["Bikes"], color: ["Black", "Silver"]})
        assert domain(diced, cat) == ["Bikes"]
        assert set(domain(diced, color)) <= {"Black", "Silver"}

    def test_dice_equals_nested_slices(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        color = aw_online.groupby_attribute("DimProduct", "Color")
        diced = dice(full, {cat: ["Bikes"], color: ["Black"]})
        nested = slice_(slice_(full, cat, "Bikes"), color, "Black")
        assert diced.fact_rows == nested.fact_rows

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_empty_value_set_selects_nothing(self, aw_online, backend):
        """An attribute diced to no values selects no rows, answered
        without a query, alike on every backend."""
        engine = QueryEngine(aw_online, backend=backend)
        full = Subspace.full(aw_online, engine=engine)
        color = aw_online.groupby_attribute("DimProduct", "Color")
        calls = engine.counters.total_calls
        assert dice(full, {color: []}).is_empty
        assert engine.filter_rows(full, [(color, ())]) == ()
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        assert dice(full, {cat: ["Bikes"], color: []}).is_empty
        assert engine.counters.total_calls == calls
        engine.close()


class TestDrillDown:
    def test_descends_one_level(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        sliced, finer = drill_down(full, cat, "Bikes")
        assert finer is not None
        assert finer.ref.column == "ProductSubcategoryName"
        subs = set(domain(sliced, finer))
        assert subs == {"Mountain Bikes", "Road Bikes", "Touring Bikes"}

    def test_bottom_level_has_no_finer(self, aw_online, full):
        city = aw_online.groupby_attribute("DimGeography", "City")
        sliced, finer = drill_down(full, city, "Seattle")
        assert finer is None
        assert not sliced.is_empty

    def test_non_hierarchy_attribute(self, aw_online, full):
        color = aw_online.groupby_attribute("DimProduct", "Color")
        _sliced, finer = drill_down(full, color, "Black")
        assert finer is None


class TestRollUp:
    def test_ascends_one_level(self, aw_online, full):
        city = aw_online.groupby_attribute("DimGeography", "City")
        coarser = roll_up(full, city)
        assert coarser.ref.column == "StateProvinceName"

    def test_top_level_returns_none(self, aw_online, full):
        country = aw_online.groupby_attribute("DimGeography",
                                              "CountryRegionName")
        assert roll_up(full, country) is None

    def test_roll_up_then_drill_down_roundtrip(self, aw_online, full):
        city = aw_online.groupby_attribute("DimGeography", "City")
        state = roll_up(full, city)
        _sliced, finer = drill_down(full, state, "California")
        assert finer.ref == city.ref


class TestPivot:
    def test_cross_tab_totals(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        quarter = aw_online.groupby_attribute("DimDate", "CalendarQuarter")
        table = pivot(full, cat, quarter, "revenue")
        assert set(table.column_values) == {"Q1", "Q2", "Q3", "Q4"}
        # revenue is a sum, so adding its cells gives the totals
        row_sums = [sum(table.cell(r, c) for c in table.column_values)
                    for r in table.row_values]
        column_sums = [sum(table.cell(r, c) for r in table.row_values)
                       for c in table.column_values]
        assert sum(row_sums) == pytest.approx(full.aggregate("revenue"))
        assert sum(column_sums) == pytest.approx(sum(row_sums))

    def test_cells_match_dice(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        quarter = aw_online.groupby_attribute("DimDate", "CalendarQuarter")
        table = pivot(full, cat, quarter, "revenue")
        diced = dice(full, {cat: ["Bikes"], quarter: ["Q2"]})
        assert table.cell("Bikes", "Q2") == pytest.approx(
            diced.aggregate("revenue"))

    def test_empty_cell_is_zero(self, aw_online, full):
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        quarter = aw_online.groupby_attribute("DimDate", "CalendarQuarter")
        table = pivot(full, cat, quarter, "revenue")
        assert table.cell("Nope", "Q1") == 0.0


@pytest.fixture(scope="module")
def priced(aw_online):
    """AW_ONLINE with a non-additive ``avg`` and a ``count`` measure."""
    return StarSchema(
        aw_online.database, aw_online.fact_table, aw_online.dimensions,
        [*aw_online.measures.values(),
         Measure("avg_price", Col("UnitPrice"), "avg"),
         Measure("order_lines", Col("Quantity"), "count")],
        aw_online.searchable, synonyms=aw_online.synonyms)


class TestPivotFoldsTheMeasureAggregate:
    """Regression: the unbound pivot summed every cell whatever the
    measure's aggregate (an ``avg`` cell read 2 104 766.18 on the full
    aw_online dataset where the engine read 799.08).  That route is
    gone; the one left folds each cell with the measure's aggregate."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("measure", ["avg_price", "order_lines"])
    def test_cells_equal_the_oracle_fold(self, priced, backend, measure):
        with pytest.raises(TypeError):  # no summing local route left
            Subspace.full(priced)
        education = priced.groupby_attribute("DimCustomer", "Education")
        occupation = priced.groupby_attribute("DimCustomer", "Occupation")
        engine = QueryEngine(priced, backend=backend)
        try:
            table = pivot(Subspace.full(priced, engine=engine),
                          education, occupation, measure)
        finally:
            engine.close()
        want = pivot_cells(priced, range(priced.num_fact_rows),
                           education, occupation, measure)
        assert table.cells.keys() == want.keys()
        for key, value in want.items():
            assert table.cells[key] == pytest.approx(value, rel=1e-9), key


@pytest.fixture(scope="module")
def two_cells():
    """Facts 2.0 at (a, x) and 6.0, 10.0 at (b, y): two pivot cells, and
    (a, y), (b, x) hold no fact."""
    db = Database("TwoCells")
    dim = Table("Dim", [integer("DimKey", nullable=False), text("Name"),
                        text("Kind")], primary_key="DimKey")
    dim.insert_many([{"DimKey": 1, "Name": "a", "Kind": "x"},
                     {"DimKey": 2, "Name": "b", "Kind": "y"}])
    db.add_table(dim)
    fact = Table("Fact", [integer("FactKey", nullable=False),
                          integer("DimKey"), float_("Amount")],
                 primary_key="FactKey")
    fact.insert_many([{"FactKey": 1, "DimKey": 1, "Amount": 2.0},
                      {"FactKey": 2, "DimKey": 2, "Amount": 6.0},
                      {"FactKey": 3, "DimKey": 2, "Amount": 10.0}])
    db.add_table(fact)
    db.add_foreign_key("fk_dim", "Fact", "DimKey", "Dim", "DimKey")
    path = path_from_fk_names(db, "Fact", ["fk_dim"])
    dim_d = Dimension(name="D", tables=("Dim",), groupbys=tuple(
        GroupByAttribute(AttributeRef("Dim", column),
                         AttributeKind.CATEGORICAL, path)
        for column in ("Name", "Kind")))
    return StarSchema(
        database=db, fact_table="Fact", dimensions=[dim_d],
        measures=[Measure("amount", Col("Amount"), "sum"),
                  Measure("avg_amount", Col("Amount"), "avg")],
        searchable={"Dim": ["Name"]})


class TestPivotEmptyCells:
    """A combination with no facts reads the aggregate's empty-input
    value, never a summed 0.0 for a non-additive measure."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_avg_missing_cell_is_none(self, two_cells, backend):
        name = two_cells.groupby_attribute("Dim", "Name")
        kind = two_cells.groupby_attribute("Dim", "Kind")
        engine = QueryEngine(two_cells, backend=backend)
        try:
            table = pivot(Subspace.full(two_cells, engine=engine), name,
                          kind, "avg_amount")
        finally:
            engine.close()
        assert table.cells == {("a", "x"): 2.0, ("b", "y"): 8.0}
        assert table.cell("b", "y") == 8.0
        assert table.cell("a", "y") is None
        assert table.cell("b", "x") is None

    def test_sum_missing_cell_is_zero(self, two_cells):
        name = two_cells.groupby_attribute("Dim", "Name")
        kind = two_cells.groupby_attribute("Dim", "Kind")
        table = pivot(Subspace.full(two_cells,
                                    engine=QueryEngine(two_cells)),
                      name, kind, "amount")
        assert table.cell("a", "y") == 0
        assert table.cell("b", "y") == 16.0
