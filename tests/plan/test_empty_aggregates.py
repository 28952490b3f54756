"""Empty-input aggregate semantics, pinned across backends.

The audit behind the vectorized rewrite: a group that selects *zero*
rows must aggregate identically on the in-memory kernels and the sqlite
mirror — 0 for sum/count (the fold identity), None for avg/min/max (SQL
NULL).  Partitions are unrestricted, so a value present in no row is no
group on either backend; projecting onto a domain
(:func:`~tests.warehouse.subspace_oracle.restrict`) fills it with that
pinned value.  Three empty-input shapes are covered:

* a domain value present in no row (a one-branch plan);
* the same inside a two-branch plan, branch by branch;
* an entirely empty child row set (``_empty_groups``: every keyed
  grouping is empty, and a 0-key grouping keeps its one group).
"""

import pytest

from repro.plan import (
    InMemoryBackend,
    MultiGroupAggregate,
    RowSet,
    SqliteBackend,
)
from repro.plan import grouping_fingerprint
from repro.plan.builders import attr_key, multi_partition_plan
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
    path_from_fk_names,
)

from ..warehouse.subspace_oracle import restrict

ALL_AGGREGATES = sorted(AGGREGATE_STATES)

EMPTY_FILL = {"sum": 0, "count": 0, "avg": None, "min": None, "max": None}
"""The pinned empty-input results: fold identities for sum/count, None
(SQL NULL) for the aggregates with no identity element."""


@pytest.fixture(scope="module")
def schema():
    """Two dim values ('a' with rows, 'b' without any fact row)."""
    db = Database("EmptyAgg")
    dim = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
    ], primary_key="DimKey")
    dim.insert_many([
        {"DimKey": 1, "Name": "a"},
        {"DimKey": 2, "Name": "b"},
    ])
    db.add_table(dim)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        float_("Amount"),
    ], primary_key="FactKey")
    fact.insert_many([
        {"FactKey": 10, "DimKey": 1, "Amount": 2.0},
        {"FactKey": 11, "DimKey": 1, "Amount": 4.0},
    ])
    db.add_table(fact)
    db.add_foreign_key("fk_dim", "Fact", "DimKey", "Dim", "DimKey")
    path = path_from_fk_names(db, "Fact", ["fk_dim"])
    dim_d = Dimension(
        name="D",
        tables=("Dim",),
        groupbys=(
            GroupByAttribute(AttributeRef("Dim", "Name"),
                             AttributeKind.CATEGORICAL, path),
            GroupByAttribute(AttributeRef("Dim", "DimKey"),
                             AttributeKind.CATEGORICAL, path),
        ),
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


def _partition(schema, rows, aggregate, column="Name"):
    """PAR(rows, Dim.column): a one-branch keyed aggregate."""
    gb = schema.groupby_attribute("Dim", column)
    return multi_partition_plan(schema, rows, [gb],
                                schema.measures[f"amount_{aggregate}"])


def _groups(backend, plan) -> dict:
    (groups,) = backend.execute(plan).values()
    return groups


@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
def test_domain_filled_empty_group(schema, backends, aggregate):
    """'b' selects no rows: neither backend returns it, and projecting
    onto the domain fills it with the pinned empty-input value."""
    mem, sq = backends
    plan = _partition(schema, (0, 1), aggregate)
    mem_result = _groups(mem, plan)
    assert mem_result == _groups(sq, plan)
    assert "b" not in mem_result
    assert mem_result["a"] is not None
    assert restrict(mem_result, ("a", "b"), aggregate)["b"] \
        == EMPTY_FILL[aggregate]


@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
def test_domain_fill_through_fused_path(schema, backends, aggregate):
    """Inside a two-branch plan each branch agrees with its one-branch
    plan, on both backends, and fills like it once projected."""
    mem, sq = backends
    name = schema.groupby_attribute("Dim", "Name")
    key = schema.groupby_attribute("Dim", "DimKey")
    plan = multi_partition_plan(schema, (0, 1), [name, key],
                                schema.measures[f"amount_{aggregate}"])
    mem_result = mem.execute(plan)
    assert mem_result == sq.execute(plan)
    by_name = mem_result[grouping_fingerprint((attr_key(name),))]
    by_key = mem_result[grouping_fingerprint((attr_key(key),))]
    assert restrict(by_name, ("a", "b"), aggregate)["b"] \
        == EMPTY_FILL[aggregate]
    assert restrict(by_key, (1, 2), aggregate)[2] == EMPTY_FILL[aggregate]
    for gb in (name, key):
        single = _partition(schema, (0, 1), aggregate, column=gb.ref.column)
        assert mem_result[grouping_fingerprint((attr_key(gb),))] \
            == _groups(mem, single) == _groups(sq, single)


@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
def test_empty_rowset_child(schema, backends, aggregate):
    """Aggregating an empty subspace: no groups, so every domain value
    gets the fill."""
    mem, sq = backends
    plan = _partition(schema, (), aggregate)
    assert _groups(mem, plan) == _groups(sq, plan) == {}
    assert restrict({}, ("a", "b"), aggregate) == \
        {"a": EMPTY_FILL[aggregate], "b": EMPTY_FILL[aggregate]}


@pytest.mark.parametrize("aggregate", ALL_AGGREGATES)
def test_empty_rowset_scalar(schema, backends, aggregate):
    """A 0-key grouping over zero rows keeps its one group ``()``, which
    holds the same fill."""
    mem, sq = backends
    measure = schema.measures[f"amount_{aggregate}"]
    plan = MultiGroupAggregate(RowSet("Fact", ()), ((),), measure.aggregate,
                               str(measure.expression), measure.expression)
    want = {(): EMPTY_FILL[aggregate]}
    assert _groups(mem, plan) == _groups(sq, plan) == want
