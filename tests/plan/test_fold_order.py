"""One fold rule on the memory backend: G(DS'), a one-key partition and
a pivot all add measures into the same mergeable states, left to right
in row order, so none of them depends on the Python version (the
built-in ``sum()`` compensates rounding from 3.12 on) and a group
holding every row of DS' aggregates exactly like DS' itself.
"""

import random

import pytest

from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import QueryEngine
from repro.relational import Database, Table, float_, integer, text
from repro.relational.expressions import Col
from repro.relational.operators import AGGREGATE_STATES
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

ALL_AGGREGATES = sorted(AGGREGATE_STATES)


def _schema(amounts) -> StarSchema:
    """One dimension row ('a', 'red') that every fact row references, so
    DS' = the full space is a single group on either key."""
    db = Database("FoldOrder")
    dim = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
        text("Color"),
    ], primary_key="DimKey")
    dim.insert({"DimKey": 1, "Name": "a", "Color": "red"})
    db.add_table(dim)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        float_("Amount"),
    ], primary_key="FactKey")
    fact.insert_many({"FactKey": i, "DimKey": 1, "Amount": amount}
                     for i, amount in enumerate(amounts))
    db.add_table(fact)
    db.add_foreign_key("fk_dim", "Fact", "DimKey", "Dim", "DimKey")
    path = path_from_fk_names(db, "Fact", ["fk_dim"])
    dim_d = Dimension(
        name="D",
        tables=("Dim",),
        groupbys=tuple(
            GroupByAttribute(AttributeRef("Dim", column),
                             AttributeKind.CATEGORICAL, path)
            for column in ("Name", "Color")),
    )
    return StarSchema(
        database=db, fact_table="Fact", dimensions=[dim_d],
        measures=[Measure(f"amount_{agg}", Col("Amount"), agg)
                  for agg in ALL_AGGREGATES],
        searchable={"Dim": ["Name"]},
    )


def _three_ways(amounts, aggregate):
    """(G(DS'), the one-key partition, the pivot) over the full space."""
    schema = _schema(amounts)
    name = f"amount_{aggregate}"
    by_name = schema.groupby_attribute("Dim", "Name")
    by_color = schema.groupby_attribute("Dim", "Color")
    with metrics_scope(MetricsRegistry()):
        engine = QueryEngine(schema)
        ds = Subspace.full(schema, engine=engine)
        return (ds.aggregate(name),
                engine.subspace_partition_aggregates(ds, by_name, name),
                engine.pivot_aggregates(ds, by_name, by_color, name))


@pytest.mark.parametrize("aggregate", ["sum", "avg"])
def test_cancelling_measures_fold_to_zero(aggregate):
    """1e16 + 1.0 rounds back to 1e16, so a left-to-right fold of
    [1e16, 1.0, -1e16] is 0.0 everywhere (a compensated sum gives 1.0)."""
    total, partition, pivot = _three_ways([1e16, 1.0, -1e16], aggregate)
    assert total == 0.0
    assert partition == {"a": 0.0}
    assert pivot == {("a", "red"): 0.0}


def _random_amounts(seed: int, n: int) -> list:
    rng = random.Random(seed)
    amounts = [rng.uniform(-1.0, 1.0) * 10 ** rng.randint(0, 16)
               for _ in range(n)]
    amounts[rng.randrange(n)] = None
    return amounts


@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
@pytest.mark.parametrize("seed, n", [(1, 7), (2, 300), (3, 5000)])
def test_single_group_equals_subspace_total(aggregate, seed, n):
    """With no NULL keys and one key value, the partition's only group
    holds every row of DS', so it folds to G(DS') bit for bit (5000 rows
    cross a chunk boundary)."""
    total, partition, pivot = _three_ways(_random_amounts(seed, n),
                                          aggregate)
    assert repr(partition) == repr({"a": total})
    assert repr(pivot) == repr({("a", "red"): total})
