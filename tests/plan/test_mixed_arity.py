"""One aggregate plan holding a 0-key, a 1-key and a 2-key grouping.

The total G(DS′), a partition and a pivot's cells are groupings of one
:class:`~repro.plan.MultiGroupAggregate`.  Mixed in one plan, every
branch must still equal the plain-loop oracle
(:mod:`tests.warehouse.subspace_oracle`) on both backends, for every
aggregate, whatever the child: rows with NULL keys and a dangling
foreign key, an empty row set, a filter that selects nothing, and a full
scan.
"""

import pytest

from repro.plan import (
    AttrKey,
    Filter,
    InMemoryBackend,
    MultiGroupAggregate,
    RowSet,
    Scan,
    SqliteBackend,
    grouping_fingerprint,
)
from repro.relational import Database, Table, boolean, float_, integer, text
from repro.relational.expressions import Col
from repro.relational.operators import AGGREGATE_STATES
from repro.warehouse import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    Measure,
    StarSchema,
    path_from_fk_names,
)

from ..warehouse.subspace_oracle import fold, group_rows, pivot_cells

ALL_AGGREGATES = sorted(AGGREGATE_STATES)


@pytest.fixture(scope="module")
def schema():
    """Nine facts: a NULL amount, a NULL name, a NULL flag, a dangling
    foreign key (99) and a NULL foreign key among them."""
    db = Database("MixedArity")
    dim = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
        boolean("Flag"),
    ], primary_key="DimKey")
    dim.insert_many([
        {"DimKey": 1, "Name": "a", "Flag": True},
        {"DimKey": 2, "Name": "a", "Flag": False},
        {"DimKey": 3, "Name": "b", "Flag": True},
        {"DimKey": 4, "Name": None, "Flag": False},
        {"DimKey": 5, "Name": "c", "Flag": None},
    ])
    db.add_table(dim)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        float_("Amount"),
    ], primary_key="FactKey")
    fact.insert_many([
        {"FactKey": 10, "DimKey": 1, "Amount": 2.0},
        {"FactKey": 11, "DimKey": 1, "Amount": 6.0},
        {"FactKey": 12, "DimKey": 2, "Amount": None},
        {"FactKey": 13, "DimKey": 3, "Amount": 10.0},
        {"FactKey": 14, "DimKey": 4, "Amount": 3.0},
        {"FactKey": 15, "DimKey": 5, "Amount": 5.0},
        {"FactKey": 16, "DimKey": 99, "Amount": 7.0},
        {"FactKey": 17, "DimKey": None, "Amount": 1.0},
        {"FactKey": 18, "DimKey": 3, "Amount": -4.0},
    ])
    db.add_table(fact)
    db.add_foreign_key("fk_dim", "Fact", "DimKey", "Dim", "DimKey")
    path = path_from_fk_names(db, "Fact", ["fk_dim"])
    dim_d = Dimension(
        name="D",
        tables=("Dim",),
        groupbys=tuple(
            GroupByAttribute(AttributeRef("Dim", column),
                             AttributeKind.CATEGORICAL, path)
            for column in ("Name", "Flag")),
    )
    return StarSchema(
        database=db, fact_table="Fact", dimensions=[dim_d],
        measures=[Measure(f"amount_{agg}", Col("Amount"), agg)
                  for agg in ALL_AGGREGATES],
        searchable={"Dim": ["Name"]},
    )


@pytest.fixture(scope="module")
def backends(schema):
    sqlite = SqliteBackend(schema)
    yield InMemoryBackend(schema), sqlite
    sqlite.close()


def _gb(schema, column):
    return schema.groupby_attribute("Dim", column)


def _key(schema, column) -> AttrKey:
    gb = _gb(schema, column)
    return AttrKey("Dim", column, gb.path_from_fact)


CHILDREN = {
    # NULL amount, NULL name, NULL flag, dangling and NULL foreign keys
    "rowset": lambda s: RowSet("Fact", (0, 2, 3, 4, 5, 6, 7)),
    "empty_rowset": lambda s: RowSet("Fact", ()),
    "empty_filter": lambda s: Filter(Scan("Fact"), attr=_key(s, "Name"),
                                     values=("zzz",)),
    "scan": lambda s: Scan("Fact"),
}


def _oracle(schema, rows, measure_name) -> dict:
    """Per grouping fingerprint: the plain-loop fold of each group."""
    aggregate = schema.measures[measure_name].aggregate
    measure = schema.measure_vector(measure_name)
    names = schema.groupby_vector(_gb(schema, "Name"))
    name, flag = _key(schema, "Name"), _key(schema, "Flag")
    return {
        (): {(): fold(aggregate, [measure[r] for r in rows])},
        grouping_fingerprint((name,)): {
            value: fold(aggregate, [measure[r] for r in group])
            for value, group in group_rows(names, rows).items()},
        grouping_fingerprint((name, flag)): pivot_cells(
            schema, rows, _gb(schema, "Name"), _gb(schema, "Flag"),
            measure_name),
    }


@pytest.mark.parametrize("child", sorted(CHILDREN))
@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
def test_every_branch_equals_the_oracle(schema, backends, child, aggregate):
    measure = schema.measures[f"amount_{aggregate}"]
    source = CHILDREN[child](schema)
    name, flag = _key(schema, "Name"), _key(schema, "Flag")
    plan = MultiGroupAggregate(source, ((name, flag), (), (name,)),
                               measure.aggregate, str(measure.expression),
                               measure.expression)
    mem, sq = backends
    rows = list(mem.materialize(source))
    want = _oracle(schema, rows, measure.name)
    for backend in (mem, sq):
        got = backend.execute(plan)
        assert got == want, backend.name
        # NULL padding does not cost the 2-key grouping its value types
        pivot = got[grouping_fingerprint((name, flag))]
        assert all(isinstance(f, bool) for _n, f in pivot)


def test_the_children_cover_the_awkward_rows(schema, backends):
    mem, _ = backends
    rowset = mem.materialize(CHILDREN["rowset"](schema))
    assert mem.materialize(CHILDREN["empty_filter"](schema)) == ()
    dim_keys = schema.database.table("Fact").column_values("DimKey")
    assert {dim_keys[r] for r in rowset} >= {None, 99, 4, 5}
