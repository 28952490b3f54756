"""Backend parity on a hand-built schema with NULLs, booleans, and dates.

The two backends must agree bit-for-bit on row materialisation and on
aggregate results — including the awkward cases: NULL group keys, groups
whose measure is entirely NULL, dangling foreign keys, boolean and date
group values, empty row sets, and values a partition does not hold.
"""

import pytest

from repro.core import (
    SURPRISE,
    ExploreConfig,
    HitGroup,
    Ray,
    StarNet,
    attribute_score,
    build_facets,
    numerical_series,
    rank_groupby_attributes,
)
from repro.plan import (
    AttrKey,
    Filter,
    InMemoryBackend,
    MultiGroupAggregate,
    QueryEngine,
    RowSet,
    Scan,
    SqliteBackend,
    create_backend,
    multi_partition_plan,
)
from repro.relational import (
    Database,
    Table,
    boolean,
    date,
    float_,
    integer,
    text,
)
from repro.relational.errors import SchemaError
from repro.relational.expressions import Col
from repro.resilience import Budget, Diagnostics, budget_scope
from repro.textindex.index import SearchHit
from repro.warehouse import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    JoinPath,
    Measure,
    PathStep,
    StarSchema,
    Subspace,
    path_from_fk_names,
)

from ..warehouse.subspace_oracle import ray_rows, restrict


@pytest.fixture(scope="module")
def tiny():
    """Fact rows: a/a (amounts 1, 2), b (NULL amount), NULL-named dim,
    dangling FK."""
    db = Database("Tiny")
    dim = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
        boolean("Flag"),
        date("Day"),
    ], primary_key="DimKey")
    dim.insert_many([
        {"DimKey": 1, "Name": "a", "Flag": True, "Day": "2020-01-01"},
        {"DimKey": 2, "Name": "b", "Flag": False, "Day": "2020-01-02"},
        {"DimKey": 3, "Name": None, "Flag": None, "Day": None},
    ])
    db.add_table(dim)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        float_("Amount"),
    ], primary_key="FactKey")
    fact.insert_many([
        {"FactKey": 10, "DimKey": 1, "Amount": 1.0},
        {"FactKey": 11, "DimKey": 1, "Amount": 2.0},
        {"FactKey": 12, "DimKey": 2, "Amount": None},
        {"FactKey": 13, "DimKey": 3, "Amount": 4.0},
        {"FactKey": 14, "DimKey": None, "Amount": 8.0},
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
            GroupByAttribute(AttributeRef("Dim", "Flag"),
                             AttributeKind.CATEGORICAL, path),
            GroupByAttribute(AttributeRef("Dim", "Day"),
                             AttributeKind.CATEGORICAL, path),
            GroupByAttribute(AttributeRef("Dim", "DimKey"),
                             AttributeKind.NUMERICAL, path),
        ),
    )
    return StarSchema(
        database=db, fact_table="Fact", dimensions=[dim_d],
        measures=[
            Measure("amount", Col("Amount"), "sum"),
            Measure("avg_amount", Col("Amount"), "avg"),
            Measure("n", Col("FactKey"), "count"),
        ],
        searchable={"Dim": ["Name"]},
    )


@pytest.fixture(scope="module")
def backends(tiny):
    sqlite = SqliteBackend(tiny)
    yield InMemoryBackend(tiny), sqlite
    sqlite.close()


def _attr(tiny, column) -> AttrKey:
    gb = tiny.groupby_attribute("Dim", column)
    return AttrKey("Dim", column, gb.path_from_fact)


def _partition(tiny, rows, column, measure="amount"):
    """PAR(rows, Dim.column) as a one-branch keyed aggregate."""
    return multi_partition_plan(
        tiny, rows, [tiny.groupby_attribute("Dim", column)],
        tiny.measures[measure])


def _groups(backend, plan) -> dict:
    """The value → aggregate dict of a one-branch plan's only branch."""
    (groups,) = backend.execute(plan).values()
    return groups


class TestMaterialize:
    def test_scan(self, backends):
        mem, sq = backends
        plan = Scan("Fact")
        assert mem.materialize(plan) == sq.materialize(plan) \
            == (0, 1, 2, 3, 4)

    def test_semijoin(self, tiny, backends):
        """A one-ray star net is the ray's attribute filter over the fact
        scan."""
        mem, sq = backends
        plan = _one_ray_net(tiny, "Name", ("a",)).to_plan(tiny)
        assert plan == Filter(Scan("Fact"), attr=_attr(tiny, "Name"),
                              values=("a",))
        assert mem.materialize(plan) == sq.materialize(plan) == (0, 1)

    def test_semijoin_on_boolean(self, tiny, backends):
        mem, sq = backends
        plan = _one_ray_net(tiny, "Flag", (False,)).to_plan(tiny)
        assert mem.materialize(plan) == sq.materialize(plan) == (2,)

    def test_attr_filter_with_null(self, tiny, backends):
        """None in the value set keeps rows whose attribute is NULL —
        including the dangling-FK row."""
        mem, sq = backends
        plan = Filter(RowSet("Fact", (0, 1, 2, 3, 4)),
                      attr=_attr(tiny, "Name"), values=("b", None))
        assert mem.materialize(plan) == sq.materialize(plan) == (2, 3, 4)

    def test_rowset_subset(self, backends):
        mem, sq = backends
        plan = RowSet("Fact", (1, 3))
        assert mem.materialize(plan) == sq.materialize(plan) == (1, 3)

    def test_empty_rowset(self, backends):
        mem, sq = backends
        plan = RowSet("Fact", ())
        assert mem.materialize(plan) == sq.materialize(plan) == ()


def _one_ray_net(tiny, column, values) -> StarNet:
    """A star net of one ray on ``Dim.column IN values``."""
    hits = tuple(SearchHit("Dim", column, v, 1.0) for v in values)
    path = tiny.groupby_attribute("Dim", column).path_from_fact
    ray = Ray(HitGroup("Dim", column, hits, ("k",)), path.reversed(), "D")
    return StarNet("Fact", (ray,))


class TestRayLowering:
    """Rays lower to attribute filters; the tiny fixture's NULL-named
    dimension row (fact 3) and dangling foreign key (fact 4) pin that
    the lowering selects what the star join would."""

    def test_null_value_is_refused(self, tiny, backends):
        # the star join of Name IS NULL reaches fact 3 only, but the
        # attribute filter would also keep the dangling fact 4
        mem, sq = backends
        net = _one_ray_net(tiny, "Name", (None,))
        assert ray_rows(tiny, net.rays[0]) == {3}
        plan = Filter(Scan("Fact"), attr=_attr(tiny, "Name"),
                      values=(None,))
        assert mem.materialize(plan) == sq.materialize(plan) == (3, 4)
        with pytest.raises(ValueError, match="cannot select NULL"):
            net.to_plan(tiny)
        with pytest.raises(ValueError, match="cannot select NULL"):
            _one_ray_net(tiny, "Name", ("b", None)).to_plan(tiny)

    def test_dangling_fact_is_in_no_ray(self, tiny, backends):
        mem, sq = backends
        dim = tiny.database.table("Dim")
        for column in ("Name", "Flag", "Day", "DimKey"):
            for value in dim.column_values(column):
                if value is None:
                    continue
                plan = _one_ray_net(tiny, column, (value,)).to_plan(tiny)
                rows = mem.materialize(plan)
                assert rows == sq.materialize(plan)
                assert rows and 4 not in rows

    def test_one_to_many_ray_path_fails_loudly(self, tiny, backends):
        mem, _ = backends
        fk = tiny.database.foreign_keys[0]
        # Fact -> Dim -> Fact: the second step fans out from the fact side
        round_trip = JoinPath((PathStep(fk, True), PathStep(fk, False)))
        hits = (SearchHit("Fact", "Amount", 1.0, 1.0),)
        ray = Ray(HitGroup("Fact", "Amount", hits, ("k",)), round_trip,
                  None)
        plan = StarNet("Fact", (ray,)).to_plan(tiny)
        with pytest.raises(SchemaError, match="one-to-many"):
            mem.materialize(plan)


class TestAggregates:
    def test_scalar_sum_ignores_null(self, tiny, backends):
        mem, sq = backends
        plan = MultiGroupAggregate(Scan("Fact"), ((),), "sum", "Amount",
                                   Col("Amount"))
        assert _groups(mem, plan) == {(): pytest.approx(15.0)}
        assert _groups(sq, plan) == {(): pytest.approx(15.0)}

    def test_group_sum_with_all_null_group(self, tiny, backends):
        """Group 'b' has only NULL amounts: both backends report 0 (the
        in-memory fold's identity), and NULL keys are dropped."""
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Name")
        want = {"a": 3.0, "b": 0}
        assert _groups(mem, plan) == want
        assert _groups(sq, plan) == want

    def test_group_keys_keep_boolean_type(self, tiny, backends):
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Flag")
        for result in (_groups(mem, plan), _groups(sq, plan)):
            assert result == {True: 3.0, False: 0}
            assert all(isinstance(k, bool) for k in result)

    def test_group_keys_keep_date_strings(self, tiny, backends):
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Day")
        want = {"2020-01-01": 3.0, "2020-01-02": 0}
        assert _groups(mem, plan) == want
        assert _groups(sq, plan) == want

    def test_avg_of_all_null_group_is_none(self, tiny, backends):
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Name",
                          measure="avg_amount")
        want = {"a": 1.5, "b": None}
        assert _groups(mem, plan) == want
        assert _groups(sq, plan) == want

    def test_count_measure(self, tiny, backends):
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Name",
                          measure="n")
        want = {"a": 2, "b": 1}
        assert _groups(mem, plan) == want
        assert _groups(sq, plan) == want

    def test_domain_fills_missing_groups(self, tiny, backends):
        """Partitions are unrestricted: a value outside the rows is no
        group, and projecting onto a domain fills it with the empty
        aggregate."""
        mem, sq = backends
        plan = _partition(tiny, (0, 1, 2, 3, 4), "Name")
        for backend in (mem, sq):
            groups = _groups(backend, plan)
            assert "zzz" not in groups
            assert restrict(groups, ("a", "zzz"), "sum") == \
                {"a": 3.0, "zzz": 0}

    def test_empty_rowset_aggregates(self, tiny, backends):
        mem, sq = backends
        scalar = MultiGroupAggregate(RowSet("Fact", ()), ((),), "sum",
                                     "Amount", Col("Amount"))
        grouped = _partition(tiny, (), "Name")
        for backend in (mem, sq):
            assert _groups(backend, scalar) == {(): 0}
            assert _groups(backend, grouped) == {}

    def test_multi_key_partition(self, tiny, backends):
        mem, sq = backends
        measure = tiny.measures["amount"]
        plan = MultiGroupAggregate(
            RowSet("Fact", (0, 1, 2, 3, 4)),
            ((_attr(tiny, "Name"), _attr(tiny, "Flag")),),
            measure.aggregate, str(measure.expression),
            measure.expression,
        )
        want = {("a", True): 3.0, ("b", False): 0}
        assert _groups(mem, plan) == want
        assert _groups(sq, plan) == want


class TestNumericFacetsHonourTheAggregate:
    """Numeric series fold per-value *aggregates*: a ``count`` measure
    counts rows per interval (it used to sum the raw expression), and a
    non-additive measure has no numeric series at all."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_count_measure_counts_rows_per_interval(self, tiny, backend):
        engine = QueryEngine(tiny, backend=backend)
        full = Subspace.full(tiny, engine=engine)
        gb = tiny.groupby_attribute("Dim", "DimKey")
        pair, buckets = numerical_series(full, full, gb, "n",
                                         num_buckets=2)
        # DimKey per fact row: 1, 1, 2, 3, NULL -> [1, 2) and [2, 3]
        assert len(buckets) == 2
        assert pair.subspace_series == (2.0, 2.0)
        assert pair.rollup_series == (2.0, 2.0)
        # ... which is the categorical partition of the same measure
        assert sum(pair.subspace_series) == sum(
            full.partition_aggregates(gb, "n").values())
        engine.close()

    def test_sum_measure_agrees_with_partition(self, tiny):
        full = Subspace.full(tiny, engine=QueryEngine(tiny))
        gb = tiny.groupby_attribute("Dim", "DimKey")
        pair, _ = numerical_series(full, full, gb, "amount", num_buckets=2)
        assert pair.subspace_series == (3.0, 4.0)

    def test_non_additive_measure_is_a_degenerate_candidate(self, tiny):
        full = Subspace.full(tiny, engine=QueryEngine(tiny))
        gb = tiny.groupby_attribute("Dim", "DimKey")
        with pytest.raises(ValueError, match="not additive"):
            numerical_series(full, full, gb, "avg_amount")
        assert attribute_score(full, [full], gb, "avg_amount",
                               SURPRISE) == float("-inf")
        ranked = rank_groupby_attributes(
            full, [full], tiny.dimensions[0].groupbys, "avg_amount",
            SURPRISE, top_k=10)
        assert gb not in [r.attribute for r in ranked]

    def test_session_notes_the_omitted_numeric_facets(self, tiny):
        budget = Budget(deadline_ms=600_000)
        with budget_scope(budget):
            interface = build_facets(
                tiny, StarNet("Fact", ()),
                config=ExploreConfig(measure_name="avg_amount"),
                engine=QueryEngine(tiny))
        shown = [a.attribute.ref.column for f in interface.facets
                 for a in f.attributes]
        assert "DimKey" not in shown and shown
        notes = Diagnostics.from_budget(budget).notes
        assert any("numeric facets omitted" in n and "avg_amount" in n
                   for n in notes)
        # the additive measure beside it keeps its numeric facet, silently
        budget = Budget(deadline_ms=600_000)
        with budget_scope(budget):
            interface = build_facets(
                tiny, StarNet("Fact", ()),
                config=ExploreConfig(measure_name="n",
                                     top_k_attributes=4),
                engine=QueryEngine(tiny))
        assert "DimKey" in [a.attribute.ref.column
                            for f in interface.facets
                            for a in f.attributes]
        assert not budget.notes


class TestCounters:
    def test_memory_counters_record_ops(self, tiny):
        mem = InMemoryBackend(tiny)
        plan = _partition(tiny, (0, 1, 2), "Name")
        mem.execute(plan)
        ops = mem.counters.as_dict()
        assert ops["MultiGroupAggregate"]["calls"] == 1
        assert "Partition" not in ops and "GroupAggregate" not in ops
        assert mem.counters.total_calls >= 2

    def test_sqlite_counters_record_sql(self, tiny):
        with SqliteBackend(tiny) as sq:
            plan = _partition(tiny, (0, 1, 2), "Name")
            sq.execute(plan)
            ops = sq.counters.as_dict()
            assert ops["SqlExecute"]["calls"] == 1
            assert ops["SqlExecute"]["rows"] >= 1
            assert ops["SqlCompile"]["calls"] == 1

    def test_reset(self, tiny):
        mem = InMemoryBackend(tiny)
        mem.materialize(Scan("Fact"))
        assert mem.counters.total_calls > 0
        mem.counters.reset()
        assert mem.counters.total_calls == 0


class TestRegistry:
    def test_create_by_name(self, tiny):
        assert create_backend(tiny, "memory").name == "memory"
        assert create_backend(tiny, "sqlite").name == "sqlite"

    def test_instance_passthrough(self, tiny):
        backend = InMemoryBackend(tiny)
        assert create_backend(tiny, backend) is backend

    def test_unknown_name(self, tiny):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend(tiny, "duckdb")
