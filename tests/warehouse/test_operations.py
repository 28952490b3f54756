"""OLAP navigation operations: slice, dice, drill-down, roll-up, pivot."""

import pytest

from repro.plan import QueryEngine
from repro.relational.expressions import Col
from repro.warehouse import Measure, StarSchema, Subspace
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
        grand_total = sum(table.row_totals().values())
        assert grand_total == pytest.approx(full.aggregate("revenue"))
        assert sum(table.column_totals().values()) == \
            pytest.approx(grand_total)

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
