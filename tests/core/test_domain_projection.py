"""One partition shape: facet scoring projects unrestricted partitions.

``candidate_scores`` and ``rank_instances_batch`` partition DS' and every
roll-up space without a domain; DOM(DS', attr) is the key set of DS''s
own partition, and each roll-up partition is projected onto it in
``repro.core``.  The result must equal the pinned restricted-domain
computation (:mod:`tests.core.ranking_oracle`) on every backend — also
where RUP(DS') does not contain DS' (a month hit on the scale star, whose
MonthName → CalendarYearName step is not functional) and where group
keys resolve to NULL.  And because a roll-up partition no longer
carries DS''s domain, one RUP partition serves every DS' below it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BELLWETHER, SURPRISE, KdapSession, rollup_subspaces
from repro.core.attribute_ranking import candidate_scores
from repro.core.instance_ranking import rank_instances_batch
from repro.datasets.scale import build_scale
from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import MultiGroupAggregate, QueryEngine
from repro.warehouse import MaterializationTier, Subspace

from ..counts import cache_counts
from ..warehouse.subspace_oracle import LocalKernel, groupby_values
from .ranking_oracle import oracle_candidate_scores, oracle_rank_instances

CONFIGS = ("memory", "sqlite", "memory+tier")

QUERIES = {
    "ebiz": ("Columbus LCD", "camera", "LCD"),
    "scale": ("022 December", "Red June", "June", "Bikes December"),
}


@pytest.fixture(scope="module")
def scale_with_nulls():
    """A scale star whose last 60 fact rows have a NULL ProductKey (so
    every Product attribute is NULL there), dated across the year."""
    schema = build_scale(num_facts=6000, seed=11)
    fact = schema.database.table("FactScaleSales")
    base = len(fact)
    rng = random.Random(3)
    fact.load_columns({
        "OrderKey": range(base + 1, base + 61),
        "ProductKey": [None] * 60,
        "DateKey": [20030101 + 100 * (i % 12) + i % 28 for i in range(60)],
        "UnitPrice": [round(rng.uniform(1, 50), 2) for _ in range(60)],
        "Quantity": [rng.randint(1, 4) for _ in range(60)],
    })
    return schema


@pytest.fixture(scope="module")
def warehouses(ebiz, scale_with_nulls):
    return {"ebiz": ebiz, "scale": scale_with_nulls}


@pytest.fixture(scope="module")
def engines(warehouses):
    built = {}
    for name, schema in warehouses.items():
        for config in CONFIGS:
            backend, _, tier = config.partition("+")
            built[name, config] = QueryEngine(
                schema, backend=backend,
                materialize=(MaterializationTier(schema, admit_after=1)
                             if tier else False))
    yield built
    for engine in built.values():
        engine.close()


@pytest.fixture(scope="module")
def nets(warehouses):
    """(warehouse, query) -> the top star net."""
    out = {}
    for name, queries in QUERIES.items():
        session = KdapSession(warehouses[name], materialize=False)
        for query in queries:
            out[name, query] = session.differentiate(
                query, limit=1)[0].star_net
        session.close()
    return out


def _local(space):
    return Subspace(space.schema, space.fact_rows, space.label,
                    engine=LocalKernel(space.schema))


def _assert_matches_oracle(schema, sub, rollups):
    """Scores and instance rankings of every dimension's candidates
    equal the oracle's restricted-domain computation."""
    plain_sub = _local(sub)
    plain_rollups = [_local(rollup) for rollup in rollups]
    for dim in schema.dimensions:
        candidates = list(dim.groupbys)
        for measure in (SURPRISE, BELLWETHER):
            got = candidate_scores(sub, rollups, candidates, "revenue",
                                   measure)
            want = oracle_candidate_scores(plain_sub, plain_rollups,
                                           candidates, "revenue", measure)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), dim.name
        categorical = [gb for gb in candidates if not gb.is_numerical]
        batch = rank_instances_batch(sub, rollups, categorical, "revenue")
        for gb in categorical:
            want = oracle_rank_instances(plain_sub, plain_rollups, gb,
                                         "revenue")
            got = {r.value: (r.aggregate, r.score) for r in batch[gb]}
            assert got.keys() == want.keys(), gb.ref
            for value, pair in want.items():
                assert got[value] == pytest.approx(pair, rel=1e-9,
                                                   abs=1e-12), value


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("warehouse,query", [
    (name, query) for name, queries in QUERIES.items() for query in queries])
def test_query_facets_equal_the_restricted_oracle(
        warehouses, engines, nets, warehouse, query, config):
    schema = warehouses[warehouse]
    engine = engines[warehouse, config]
    net = nets[warehouse, query]
    with metrics_scope(MetricsRegistry()):
        sub = engine.evaluate(net)
        rollups = rollup_subspaces(schema, net, engine)
        _assert_matches_oracle(schema, sub, rollups)


def test_the_queries_cover_non_nested_roll_ups_and_null_keys(
        warehouses, nets, scale_with_nulls):
    """The cases above include a RUP(DS') that does not contain DS' and
    a roll-up space whose Product keys are NULL on some rows."""
    non_nested = null_keys = 0
    product = next(d for d in scale_with_nulls.dimensions
                   if d.name == "Product")
    for (name, _query), net in nets.items():
        schema = warehouses[name]
        kernel = LocalKernel(schema)
        sub = kernel.evaluate(net)
        for rollup in rollup_subspaces(schema, net, kernel):
            non_nested += not rollup.contains(sub)
            if name == "scale":
                null_keys += None in groupby_values(rollup,
                                                    product.groupbys[0])
    assert non_nested and null_keys


@pytest.mark.parametrize("warehouse", ["ebiz", "scale"])
@given(seed=st.integers(0, 2**16),
       fraction=st.sampled_from([0.001, 0.02, 0.2]),
       rollup_kind=st.sampled_from(["superset", "overlap", "full"]),
       config=st.sampled_from(CONFIGS))
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_random_spaces_equal_the_restricted_oracle(
        warehouses, engines, warehouse, seed, fraction, rollup_kind,
        config):
    """Random DS' against a superset, a merely overlapping space, or the
    whole dataspace (NULL-key rows included on scale)."""
    schema = warehouses[warehouse]
    engine = engines[warehouse, config]
    rng = random.Random(seed)
    n = schema.num_fact_rows
    rows = rng.sample(range(n), max(1, int(n * fraction)))
    if rollup_kind == "full":
        rollup_rows = range(n)
    else:
        others = rng.sample(range(n), n // 5)
        rollup_rows = set(others) | (
            set(rows) if rollup_kind == "superset" else set(rows[::2]))
    with metrics_scope(MetricsRegistry()):
        sub = Subspace.of(schema, rows, "DS'", engine=engine)
        rollup = Subspace.of(schema, rollup_rows, "RUP", engine=engine)
        _assert_matches_oracle(schema, sub, [rollup])


def test_one_rollup_partition_serves_every_subspace_below_it(
        scale_with_nulls, monkeypatch):
    """'Red June' and 'Black June' share their Product roll-up (the June
    rows: Color has no parent level, so its ray is dropped).  After the
    first query's facet scoring, the second one's asks that roll-up only
    plan-cache hits: no plan over its rows runs again."""
    schema = scale_with_nulls
    engine = QueryEngine(schema)
    session = KdapSession(schema, materialize=False)
    spaces = []
    for query in ("Red June", "Black June"):
        net = session.differentiate(query, limit=1)[0].star_net
        spaces.append((engine.evaluate(net),
                       rollup_subspaces(schema, net, engine)))
    session.close()
    (first, first_rollups), (second, second_rollups) = spaces
    first_rows = {rollup.fact_rows for rollup in first_rollups}
    shared = [rollup for rollup in second_rollups
              if rollup.fact_rows in first_rows]
    assert len(shared) == 1
    shared_rows = shared[0].fact_rows
    product = next(d for d in schema.dimensions if d.name == "Product")
    candidates = list(product.groupbys)
    categorical = [gb for gb in candidates if not gb.is_numerical]

    def facet_pass(sub, rollups):
        candidate_scores(sub, rollups, candidates, "revenue", SURPRISE)
        rank_instances_batch(sub, rollups, categorical, "revenue")

    facet_pass(first, first_rollups)
    ran = []
    run = engine._run
    monkeypatch.setattr(engine, "_run",
                        lambda plan: ran.append(plan) or run(plan))
    with metrics_scope(MetricsRegistry()) as registry:
        facet_pass(second, [shared[0]])
    assert ran, "the second DS' itself must still be scanned"
    assert all(not (isinstance(plan, MultiGroupAggregate)
                    and plan.child.rows == shared_rows) for plan in ran)
    # every roll-up branch (one per candidate) and G(RUP) were hits
    assert cache_counts(registry)["hits"] >= len(candidates) + 1
    engine.close()
