"""Fused multi-aggregate execution: parity, fingerprints, budgets, fills.

The contract under test: ``multi_partition_aggregates`` over N group-bys
is *semantically identical* to N independent
``subspace_partition_aggregates`` calls — on the in-memory backend, the
sqlite backend, a ResilientBackend-wrapped backend, and the pinned
local kernel (``subspace_oracle``) — while executing as one plan.  The
awkward aggregate semantics (empty-domain fills, all-NULL groups) must
not diverge between one-branch and multi-branch plans for any aggregate.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import (
    InMemoryBackend,
    MultiGroupAggregate,
    QueryEngine,
    RowSet,
    attr_key,
    multi_partition_plan,
    subspace_aggregate_plan,
)
from repro.relational import (
    Database,
    Table,
    float_,
    integer,
    text,
)
from repro.relational.errors import BudgetExceeded, TransientBackendError
from repro.relational.expressions import Col
from repro.resilience import (
    Budget,
    FaultInjectingBackend,
    ResilientBackend,
    budget_scope,
)
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

from ..counts import cache_counts
from ..integration.test_engine_agreement import CITIES, GROUPS, build_net
from ..warehouse.subspace_oracle import LocalKernel

AGG_MEASURES = {
    "sum": "m_sum",
    "count": "m_count",
    "avg": "m_avg",
    "min": "m_min",
    "max": "m_max",
}

EMPTY_FILL = {"sum": 0, "count": 0, "avg": None, "min": None, "max": None}


@pytest.fixture(scope="module")
def agg_schema():
    """A schema carrying one measure per aggregate, with NULL measures and
    NULL group keys in awkward places."""
    db = Database("Agg")
    dim = Table("Dim", [
        integer("DimKey", nullable=False),
        text("Name"),
        text("Size"),
    ], primary_key="DimKey")
    dim.insert_many([
        {"DimKey": 1, "Name": "a", "Size": "small"},
        {"DimKey": 2, "Name": "b", "Size": "large"},
        {"DimKey": 3, "Name": "c", "Size": None},
    ])
    db.add_table(dim)
    fact = Table("Fact", [
        integer("FactKey", nullable=False),
        integer("DimKey"),
        float_("Amount"),
    ], primary_key="FactKey")
    fact.insert_many([
        {"FactKey": 10, "DimKey": 1, "Amount": 1.5},
        {"FactKey": 11, "DimKey": 1, "Amount": 4.0},
        {"FactKey": 12, "DimKey": 2, "Amount": None},  # all-NULL group "b"
        {"FactKey": 13, "DimKey": 3, "Amount": -2.0},
        {"FactKey": 14, "DimKey": None, "Amount": 8.0},  # dangling FK
    ])
    db.add_table(fact)
    db.add_foreign_key("fk_dim", "Fact", "DimKey", "Dim", "DimKey")
    path = path_from_fk_names(db, "Fact", ["fk_dim"])
    return StarSchema(
        database=db, fact_table="Fact",
        dimensions=[Dimension(
            name="D", tables=("Dim",),
            groupbys=(
                GroupByAttribute(AttributeRef("Dim", "Name"),
                                 AttributeKind.CATEGORICAL, path),
                GroupByAttribute(AttributeRef("Dim", "Size"),
                                 AttributeKind.CATEGORICAL, path),
            ),
        )],
        measures=[Measure(name, Col("Amount"), agg)
                  for agg, name in AGG_MEASURES.items()],
        searchable={"Dim": ["Name"]},
    )


@pytest.fixture(scope="module")
def agg_engines(agg_schema):
    memory = QueryEngine(agg_schema, backend="memory")
    sqlite = QueryEngine(agg_schema, backend="sqlite")
    yield {"memory": memory, "sqlite": sqlite}
    sqlite.close()


def _gbs(schema):
    return [schema.groupby_attribute("Dim", "Name"),
            schema.groupby_attribute("Dim", "Size")]


# ----------------------------------------------------------------------
# empty-domain fills: single and fused paths agree for every aggregate
# ----------------------------------------------------------------------
class TestEmptyDomainFills:
    @pytest.mark.parametrize("aggregate", sorted(AGG_MEASURES))
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_absent_domain_value_fill(self, agg_engines, agg_schema,
                                      aggregate, backend):
        """A domain category with zero rows fills 0 for sum/count and
        None for avg/min/max — identically in single and fused paths."""
        engine = agg_engines[backend]
        measure = AGG_MEASURES[aggregate]
        gbs = _gbs(agg_schema)
        sub = Subspace.full(agg_schema, engine=engine)
        domains = [("a", "b", "__absent__"), ("small", "__absent__")]
        fused = engine.multi_partition_aggregates(sub, gbs, measure,
                                                  domains=domains)
        singles = [
            engine.subspace_partition_aggregates(sub, gb, measure,
                                                 domain=domain)
            for gb, domain in zip(gbs, domains)
        ]
        assert fused == singles
        fill = EMPTY_FILL[aggregate]
        for groups in fused:
            assert groups["__absent__"] == fill

    @pytest.mark.parametrize("aggregate", sorted(AGG_MEASURES))
    def test_local_path_same_fill(self, agg_schema, aggregate):
        """The pinned local fused kernel uses the same fills."""
        measure = AGG_MEASURES[aggregate]
        gbs = _gbs(agg_schema)
        sub = Subspace.full(agg_schema, engine=LocalKernel(agg_schema))
        domains = [("a", "__absent__"), ("large", "__absent__")]
        fused = sub.multi_partition_aggregates(gbs, measure,
                                               domains=domains)
        singles = [sub.partition_aggregates(gb, measure, domain=domain)
                   for gb, domain in zip(gbs, domains)]
        assert fused == singles
        fill = EMPTY_FILL[aggregate]
        assert fused[0]["__absent__"] == fill
        assert fused[1]["__absent__"] == fill

    @pytest.mark.parametrize("aggregate", sorted(AGG_MEASURES))
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_all_null_measure_group(self, agg_engines, agg_schema,
                                    aggregate, backend):
        """Group "b" exists but every measure value is NULL: sum/count
        give 0, avg/min/max give None — fused same as single."""
        engine = agg_engines[backend]
        measure = AGG_MEASURES[aggregate]
        gbs = _gbs(agg_schema)
        sub = Subspace.full(agg_schema, engine=engine)
        fused = engine.multi_partition_aggregates(sub, gbs, measure)
        single = engine.subspace_partition_aggregates(sub, gbs[0], measure)
        assert fused[0] == single
        assert fused[0]["b"] == EMPTY_FILL[aggregate]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_empty_subspace(self, agg_engines, agg_schema, backend):
        engine = agg_engines[backend]
        gbs = _gbs(agg_schema)
        empty = Subspace.of(agg_schema, (), engine=engine)
        got = engine.multi_partition_aggregates(
            empty, gbs, "m_avg", domains=[("a",), None])
        assert got == [{"a": None}, {}]


# ----------------------------------------------------------------------
# one attribute under several domains in one call
# ----------------------------------------------------------------------
class TestRepeatedAttribute:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_two_domains_and_a_repeat(self, agg_schema, backend):
        """Name under two domains plus an exact repeat of one of them (and
        Size beside them) answers like one call per attribute: each plan's
        keys are distinct, so the second Name branch runs in a second
        round."""
        name, size = _gbs(agg_schema)
        gbs = [name, size, name, name]
        domains = [("a", "b"), None, ("b", "c", "__absent__"), ("a", "b")]
        engine = QueryEngine(agg_schema, backend=backend)
        sub = Subspace.full(agg_schema, engine=engine)
        fused = engine.multi_partition_aggregates(sub, gbs, "m_sum",
                                                  domains=domains)
        assert engine.counters.ops["MultiGroupAggregate"].calls == 2
        engine.close()
        fresh = QueryEngine(agg_schema, backend=backend)
        sub = Subspace.full(agg_schema, engine=fresh)
        singles = [fresh.subspace_partition_aggregates(sub, gb, "m_sum",
                                                       domain=domain)
                   for gb, domain in zip(gbs, domains)]
        fresh.close()
        assert fused == singles
        assert fused[0] == {"a": 5.5, "b": 0}
        assert fused[2] == {"b": 0, "c": -2.0, "__absent__": 0}
        assert fused[3] == fused[0] and fused[3] is not fused[0]


# ----------------------------------------------------------------------
# fingerprint stability
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_order_insensitive(self, agg_schema):
        gbs = _gbs(agg_schema)
        measure = agg_schema.measures["m_sum"]
        rows = (0, 1, 2)
        forward = multi_partition_plan(agg_schema, rows, gbs, measure)
        backward = multi_partition_plan(agg_schema, rows, gbs[::-1],
                                        measure)
        assert forward.fingerprint() == backward.fingerprint()

    def test_order_insensitive_with_domains(self, agg_schema):
        gbs = _gbs(agg_schema)
        measure = agg_schema.measures["m_sum"]
        rows = (0, 1, 2)
        domains = [("a", "b"), ("small",)]
        forward = multi_partition_plan(agg_schema, rows, gbs, measure,
                                       domains=domains)
        backward = multi_partition_plan(agg_schema, rows, gbs[::-1],
                                        measure, domains=domains[::-1])
        assert forward.fingerprint() == backward.fingerprint()
        # a domain restriction is part of the identity
        unrestricted = multi_partition_plan(agg_schema, rows, gbs, measure)
        assert forward.fingerprint() != unrestricted.fingerprint()

    def test_never_collides_with_single_group_aggregate(self, agg_schema):
        """A multi-branch plan never shares a cache slot with one of its
        one-branch plans (the engine caches each branch under its own),
        and no keyed plan shares one with the scalar aggregate of the
        same rows."""
        gbs = _gbs(agg_schema)
        measure = agg_schema.measures["m_sum"]
        rows = (0, 1, 2)
        multi = multi_partition_plan(agg_schema, rows, gbs, measure)
        lones = [multi_partition_plan(agg_schema, rows, [gb], measure)
                 for gb in gbs]
        lone_prints = {plan.fingerprint() for plan in lones}
        assert len(lone_prints) == len(gbs)
        assert multi.fingerprint() not in lone_prints
        scalar = subspace_aggregate_plan(agg_schema, rows, measure)
        assert scalar.fingerprint() not in lone_prints | {multi.fingerprint()}

    def test_distinct_measures_distinct_fingerprints(self, agg_schema):
        gbs = _gbs(agg_schema)
        rows = (0, 1, 2)
        prints = {
            multi_partition_plan(agg_schema, rows, gbs,
                                 agg_schema.measures[m]).fingerprint()
            for m in AGG_MEASURES.values()
        }
        assert len(prints) == len(AGG_MEASURES)

    def test_fused_plan_is_cached_by_fingerprint(self, agg_schema):
        engine = QueryEngine(agg_schema, backend="memory")
        gbs = _gbs(agg_schema)
        sub = Subspace.full(agg_schema, engine=engine)
        with metrics_scope(MetricsRegistry()) as registry:
            first = engine.multi_partition_aggregates(sub, gbs, "m_sum")
            misses = cache_counts(registry)["misses"]
            # every branch is cached under its own fingerprint: in any
            # order a repeat is all hits, and the fused plan itself holds
            # no entry
            second = engine.multi_partition_aggregates(sub, gbs[::-1],
                                                       "m_sum")
        assert cache_counts(registry)["misses"] == misses
        assert second == first[::-1]
        assert engine.cache_key(multi_partition_plan(
            agg_schema, sub.fact_rows, gbs,
            agg_schema.measures["m_sum"]).fingerprint()) not in engine.cache


# ----------------------------------------------------------------------
# randomized parity across backends and wrappers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ebiz_engines(ebiz):
    memory = QueryEngine(ebiz, backend="memory")
    sqlite = QueryEngine(ebiz, backend="sqlite")
    resilient = QueryEngine(
        ebiz, backend=ResilientBackend(InMemoryBackend(ebiz)))
    yield [memory, sqlite, resilient]
    sqlite.close()


EBIZ_GBS = [
    ("PGROUP", "GroupName"),
    ("LOCATION", "City"),
    ("TIMEMONTH", "Quarter"),
    ("STORE", "StoreName"),
]


@given(
    groups=st.lists(st.sampled_from(GROUPS), min_size=0, max_size=2,
                    unique=True),
    cities=st.lists(st.sampled_from(CITIES), min_size=0, max_size=2,
                    unique=True),
    gb_choices=st.lists(st.sampled_from(EBIZ_GBS), min_size=1, max_size=4,
                        unique=True),
    restrict=st.booleans(),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fused_equals_singles_everywhere(ebiz, ebiz_engines, groups,
                                         cities, gb_choices, restrict):
    """Fused == N singles on memory, sqlite, and resilient engines, and
    all three agree with the pinned local fused kernel."""
    net = build_net(ebiz, groups, cities)
    gbs = [ebiz.groupby_attribute(*choice) for choice in gb_choices]
    local = LocalKernel(ebiz).evaluate(net)
    domains = None
    if restrict:
        domains = [tuple(local.domain(gb)[:3]) + ("__nope__",)
                   for gb in gbs]
    want = local.multi_partition_aggregates(gbs, "revenue",
                                            domains=domains)
    singles = [
        local.partition_aggregates(
            gb, "revenue", domain=None if domains is None else domains[i])
        for i, gb in enumerate(gbs)
    ]
    assert want == singles
    for engine in ebiz_engines:
        sub = engine.evaluate(net)
        got = engine.multi_partition_aggregates(sub, gbs, "revenue",
                                                domains=domains)
        assert len(got) == len(want)
        for got_groups, want_groups in zip(got, want):
            assert set(got_groups) == set(want_groups)
            for key, value in want_groups.items():
                assert got_groups[key] == pytest.approx(value), key


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
class TestBudgets:
    def test_group_budget_charged_by_fused_path(self, ebiz):
        engine = QueryEngine(ebiz, backend="memory")
        gbs = [ebiz.groupby_attribute(*choice) for choice in EBIZ_GBS]
        sub = Subspace.full(ebiz, engine=engine)
        budget = Budget(max_groups=1)
        with budget_scope(budget):
            with pytest.raises(BudgetExceeded) as excinfo:
                engine.multi_partition_aggregates(sub, gbs, "revenue")
        assert excinfo.value.reason == "groups"
        # exhaustion must not poison the cache with a partial result
        fresh = engine.multi_partition_aggregates(sub, gbs, "revenue")
        local = Subspace.full(ebiz, engine=LocalKernel(ebiz))
        assert fresh == [local.partition_aggregates(gb, "revenue")
                         for gb in gbs]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_fused_and_unfused_truncate_alike(self, ebiz, backend):
        """Under the same group budget, the fused call and one
        single-key call per group-by raise the same typed error for the
        same reason (the budget contract does not depend on fusion)."""
        gbs = [ebiz.groupby_attribute(*choice) for choice in EBIZ_GBS]
        reasons = {}
        for fused in (True, False):
            engine = QueryEngine(ebiz, backend=backend)
            sub = Subspace.full(ebiz, engine=engine)
            with budget_scope(Budget(max_groups=1)):
                with pytest.raises(BudgetExceeded) as excinfo:
                    if fused:
                        engine.multi_partition_aggregates(sub, gbs,
                                                          "revenue")
                    else:
                        for gb in gbs:
                            engine.subspace_partition_aggregates(
                                sub, gb, "revenue")
            reasons[fused] = excinfo.value.reason
            engine.close()
        assert reasons[True] == reasons[False] == "groups"

    def test_explore_truncation_events_match_unfused(self, ebiz):
        """A budgeted explore degrades to the same TruncationEvent stages
        whether facets fuse their group-bys or ask one at a time."""
        from repro.core import KdapSession

        class Unfused(QueryEngine):
            def multi_partition_aggregates(self, subspace, gbs,
                                           measure_name, domains=None):
                gbs = list(gbs)
                domains = domains or [None] * len(gbs)
                return [self.subspace_partition_aggregates(
                            subspace, gb, measure_name, domain=domain)
                        for gb, domain in zip(gbs, domains)]

        stages = {}
        for fused in (True, False):
            session = KdapSession(ebiz)
            if not fused:
                session.engine = Unfused(ebiz, materialize=True)
            ranked = session.differentiate("projectors seattle")
            assert ranked
            budget = Budget(max_groups=50)
            result = session.explore(ranked[0].star_net, budget=budget)
            assert result.is_partial
            stages[fused] = [e.stage for e in budget.events]
            session.close()
        assert stages[True] == stages[False]


# ----------------------------------------------------------------------
# error handling
# ----------------------------------------------------------------------
class TestFailures:
    def test_failed_fused_execute_caches_nothing(self, ebiz):
        faulty = FaultInjectingBackend(InMemoryBackend(ebiz),
                                       fail_calls={1})
        engine = QueryEngine(ebiz, backend=faulty)
        gbs = [ebiz.groupby_attribute(*choice) for choice in EBIZ_GBS[:2]]
        sub = Subspace(ebiz, tuple(range(100)), engine=engine)
        with pytest.raises(TransientBackendError):
            engine.multi_partition_aggregates(sub, gbs, "revenue")
        assert len(engine.cache) == 0
        # retry succeeds and agrees with the local path
        got = engine.multi_partition_aggregates(sub, gbs, "revenue")
        local = Subspace(ebiz, tuple(range(100)),
                         engine=LocalKernel(ebiz))
        assert got == [local.partition_aggregates(gb, "revenue")
                       for gb in gbs]

    def test_resilient_wrapper_recovers_fused_plans(self, ebiz):
        flaky = FaultInjectingBackend(InMemoryBackend(ebiz),
                                      fail_calls={1})
        engine = QueryEngine(ebiz, backend=ResilientBackend(flaky))
        gbs = [ebiz.groupby_attribute(*choice) for choice in EBIZ_GBS[:3]]
        sub = Subspace.full(ebiz, engine=engine)
        got = engine.multi_partition_aggregates(sub, gbs, "revenue")
        local = Subspace.full(ebiz, engine=LocalKernel(ebiz))
        assert got == [local.partition_aggregates(gb, "revenue")
                       for gb in gbs]


# ----------------------------------------------------------------------
# plan-node invariants
# ----------------------------------------------------------------------
class TestNodeInvariants:
    def test_rejects_empty_key_set(self, agg_schema):
        with pytest.raises(ValueError):
            MultiGroupAggregate(
                child=RowSet("Fact", (0,)), keys=(),
                aggregate="sum", measure_sql="Amount")

    def test_rejects_duplicate_keys(self, agg_schema):
        key = attr_key(_gbs(agg_schema)[0])
        with pytest.raises(ValueError):
            MultiGroupAggregate(
                child=RowSet("Fact", (0,)), keys=(key, key),
                aggregate="sum", measure_sql="Amount")

    def test_rejects_misaligned_domains(self, agg_schema):
        keys = tuple(attr_key(gb) for gb in _gbs(agg_schema))
        with pytest.raises(ValueError):
            MultiGroupAggregate(
                child=RowSet("Fact", (0,)), keys=keys,
                aggregate="sum", measure_sql="Amount",
                domains=(("a",),))

    def test_branches_sorted_canonically(self, agg_schema):
        keys = tuple(attr_key(gb) for gb in _gbs(agg_schema))
        plan = MultiGroupAggregate(
            child=RowSet("Fact", (0,)), keys=keys,
            aggregate="sum", measure_sql="Amount")
        flipped = MultiGroupAggregate(
            child=RowSet("Fact", (0,)), keys=keys[::-1],
            aggregate="sum", measure_sql="Amount")
        assert plan.branches() == flipped.branches()
