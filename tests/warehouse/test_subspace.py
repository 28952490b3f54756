"""Subspace algebra, aggregation, and partitioning."""

import pytest

from repro.core.attribute_ranking import subspace_domain
from repro.warehouse import Subspace

from .subspace_oracle import domain, groupby_values, partition, restrict


@pytest.fixture(scope="module")
def spaces(aw_online, aw_engine):
    full = Subspace.full(aw_online, engine=aw_engine)
    half = Subspace.of(aw_online, range(0, aw_online.num_fact_rows, 2),
                       label="even", engine=aw_engine)
    return aw_online, full, half


class TestConstruction:
    def test_of_normalises(self, aw_online, aw_engine):
        subspace = Subspace.of(aw_online, [3, 1, 2, 1], engine=aw_engine)
        assert subspace.fact_rows == (1, 2, 3)

    def test_full(self, spaces):
        schema, full, _half = spaces
        assert len(full) == schema.num_fact_rows

    def test_empty(self, aw_online, aw_engine):
        assert Subspace.of(aw_online, [], engine=aw_engine).is_empty

    def test_engine_is_required(self, aw_online):
        """There is one evaluation route: a subspace without an engine
        cannot be built."""
        with pytest.raises(TypeError):
            Subspace(aw_online, (0, 1))
        with pytest.raises(TypeError):
            Subspace.of(aw_online, [0, 1])
        with pytest.raises(TypeError):
            Subspace.full(aw_online)


class TestAlgebra:
    def test_intersect(self, spaces):
        schema, full, half = spaces
        assert full.intersect(half).fact_rows == half.fact_rows

    def test_union(self, spaces):
        schema, full, half = spaces
        assert half.union(full).fact_rows == full.fact_rows

    def test_contains(self, spaces):
        _schema, full, half = spaces
        assert full.contains(half)
        assert not half.contains(full)

    def test_labels_combined(self, spaces):
        _schema, full, half = spaces
        assert "AND" in full.intersect(half).label
        assert "OR" in full.union(half).label


class TestAggregation:
    def test_full_aggregate_is_total(self, spaces):
        schema, full, _half = spaces
        total = sum(schema.measure_vector("revenue"))
        assert full.aggregate("revenue") == pytest.approx(total)

    def test_additivity(self, spaces):
        schema, full, half = spaces
        other = Subspace.of(
            schema, set(full.fact_rows) - set(half.fact_rows),
            engine=full.engine)
        assert half.aggregate("revenue") + other.aggregate("revenue") == \
            pytest.approx(full.aggregate("revenue"))

    def test_empty_aggregate_zero(self, aw_online, aw_engine):
        assert Subspace.of(aw_online, [], engine=aw_engine) \
            .aggregate("revenue") == 0.0


class TestPartitioning:
    def test_partition_covers_non_null_rows(self, spaces):
        """PAR(DS', attr) row by row covers every row with a non-NULL
        value, and its values are the engine partition's keys."""
        schema, _full, half = spaces
        gb = schema.groupby_attribute("DimProduct", "Color")
        rows_by_value = partition(half, gb)
        covered = sorted(r for rows in rows_by_value.values() for r in rows)
        values = schema.groupby_vector(gb)
        want = [r for r in half.fact_rows if values[r] is not None]
        assert covered == want
        assert set(half.partition_aggregates(gb, "revenue")) \
            == set(rows_by_value)

    def test_partition_aggregates_sum_to_total(self, spaces):
        schema, _full, half = spaces
        gb = schema.groupby_attribute("DimProductCategory",
                                      "ProductCategoryName")
        parts = half.partition_aggregates(gb, "revenue")
        assert sum(parts.values()) == pytest.approx(
            half.aggregate("revenue"))

    def test_domain_sorted(self, spaces):
        """DOM(DS', attr) is the sorted key set of DS''s own partition."""
        schema, full, _half = spaces
        gb = schema.groupby_attribute("DimDate", "MonthName")
        values = subspace_domain(full.partition_aggregates(gb, "revenue"))
        assert values == sorted(values)
        assert values == domain(full, gb)

    def test_fixed_domain_fills_zero(self, spaces):
        """A value outside DS' is no group; projected onto a fixed
        domain it aggregates to zero."""
        schema, _full, half = spaces
        gb = schema.groupby_attribute("DimProduct", "Color")
        parts = half.partition_aggregates(gb, "revenue")
        assert "NoSuchColor" not in parts
        assert restrict(parts, ["NoSuchColor"], "sum") == {"NoSuchColor": 0.0}

    def test_groupby_values_aligned(self, spaces):
        schema, _full, half = spaces
        gb = schema.groupby_attribute("DimProduct", "Color")
        values = groupby_values(half, gb)
        assert len(values) == len(half)
