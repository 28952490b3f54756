"""Numeric facets through the engine == the pinned row-at-a-time oracle.

``numerical_series`` folds ``{distinct value: aggregate}`` partitions that
come back from the plan cache, the materialization tier, the chunked scan
kernel or one SQL statement.  Whatever path answered, the series must
equal the oracle's row-order sums to float re-association tolerance, over
identical intervals, and anneal to identical display splits.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    SURPRISE,
    AnnealingConfig,
    KdapSession,
    anneal_splits,
    distinct_value_buckets,
    numerical_series,
    rank_groupby_attributes,
)
from repro.datasets.scale import build_scale
from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import InMemoryBackend, QueryEngine, SqliteBackend
from repro.resilience import Budget, FaultInjectingBackend, ResilientBackend
from repro.warehouse import MaterializationTier, Subspace

from ..counts import cache_counts, resilience_counts
from ..warehouse.subspace_oracle import LocalKernel
from .numeric_oracle import oracle_numerical_series

SUPPRESS = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
CONFIGS = ("memory", "memory+tier", "sqlite", "sqlite+tier",
           "resilient+tier")


def _append_scale_facts(schema, rng, count, product_keys):
    fact = schema.database.table("FactScaleSales")
    base = len(fact)
    fact.load_columns({
        "OrderKey": range(base + 1, base + count + 1),
        "ProductKey": [rng.choice(product_keys) for _ in range(count)],
        "DateKey": [20030101 + rng.randint(0, 27) for _ in range(count)],
        "UnitPrice": [round(rng.uniform(1, 50), 2) for _ in range(count)],
        "Quantity": [rng.randint(1, 4) for _ in range(count)],
    })


@pytest.fixture(scope="module")
def scale_with_nulls():
    """A scale star whose last 60 fact rows have a NULL ProductKey, so
    their ListPrice resolves to NULL."""
    schema = build_scale(num_facts=6000, seed=11)
    _append_scale_facts(schema, random.Random(1), 60, [None])
    return schema


@pytest.fixture(scope="module")
def warehouses(aw_online, ebiz, scale_with_nulls):
    return {"aw_online": aw_online, "ebiz": ebiz,
            "scale": scale_with_nulls}


def _engine(schema, config):
    backend, _, tier = config.partition("+")
    if backend == "memory":
        target = InMemoryBackend(schema)
    elif backend == "sqlite":
        target = SqliteBackend(schema)
    else:  # every 5th sqlite call fails once; retries answer it
        target = ResilientBackend(
            FaultInjectingBackend(SqliteBackend(schema), fail_nth=5),
            fallback=lambda: InMemoryBackend(schema),
            sleep=lambda _s: None)
    return QueryEngine(
        schema, backend=target,
        materialize=(MaterializationTier(schema, admit_after=1)
                     if tier else False))


@pytest.fixture(scope="module")
def engines(warehouses):
    """(warehouse, config) -> engine; plan caches and tiers persist
    across examples, so later examples also exercise warm paths."""
    built = {(name, config): _engine(schema, config)
             for name, schema in warehouses.items() for config in CONFIGS}
    yield built
    for engine in built.values():
        engine.close()


@pytest.fixture(scope="module")
def registries(engines):
    """(warehouse, config) -> the metrics registry its engine counts in."""
    return {key: MetricsRegistry() for key in engines}


def _numeric_gbs(schema):
    return [gb for dim in schema.dimensions for gb in dim.groupbys
            if gb.is_numerical]


def _spaces(schema, gb, shape, seed, fraction, rollup_kind):
    """(DS' rows, RUP rows): a random sample — or every row of one
    attribute value — inside the full space or a random superset."""
    rng = random.Random(seed)
    n = schema.num_fact_rows
    if shape == "single":
        vector = schema.groupby_vector(gb)
        value = rng.choice(sorted({v for v in vector if v is not None}))
        rows = [r for r in range(n) if vector[r] == value]
    else:
        rows = rng.sample(range(n), max(1, int(n * fraction)))
    if rollup_kind == "full":
        rollup = range(n)
    else:
        rollup = set(rows) | set(rng.sample(range(n), n // 4))
    return tuple(sorted(rows)), tuple(sorted(rollup))


def _close(a, b):
    return len(a) == len(b) and all(
        math.isclose(p, q, rel_tol=1e-9, abs_tol=1e-9)
        for p, q in zip(a, b))


def _splits(x, y):
    k = min(5, len(x))
    if k == len(x):
        return tuple(range(1, len(x)))
    return anneal_splits(list(x), list(y), AnnealingConfig(
        num_intervals=k, iterations=80)).splits


@pytest.mark.parametrize("warehouse", ["aw_online", "ebiz", "scale"])
@given(data=st.data(),
       shape=st.sampled_from(["sample", "sample", "single"]),
       seed=st.integers(0, 2**16),
       fraction=st.sampled_from([0.002, 0.02, 0.3]),
       rollup_kind=st.sampled_from(["full", "superset"]),
       num_buckets=st.sampled_from([1, 7, 40, 80]),
       ground_truth=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=SUPPRESS)
def test_engine_series_equal_the_row_oracle(
        warehouses, engines, registries, warehouse, data, shape, seed, fraction,
        rollup_kind, num_buckets, ground_truth):
    schema = warehouses[warehouse]
    gb = data.draw(st.sampled_from(_numeric_gbs(schema)))
    rows, rollup_rows = _spaces(schema, gb, shape, seed, fraction,
                                rollup_kind)
    local = LocalKernel(schema)
    plain_sub = Subspace(schema, rows, "DS'", engine=local)
    plain_roll = Subspace(schema, rollup_rows, "RUP", engine=local)
    buckets = None
    if ground_truth:
        values = [v for v in plain_sub.groupby_values(gb) if v is not None]
        if values:
            buckets = distinct_value_buckets(values)
    try:
        want = oracle_numerical_series(plain_sub, plain_roll, gb, "revenue",
                                       num_buckets, buckets=buckets)
    except ValueError:
        want = None  # DS' holds only NULL attribute values
    for config in [None, *CONFIGS]:  # None: the pinned local kernel
        engine = engines[warehouse, config] if config else local
        with metrics_scope(registries.get((warehouse, config))):
            if config and engine.tier is not None and seed % 2:
                engine.cache.clear()  # let the tier, not the cache, answer
            sub = Subspace(schema, rows, "DS'", engine=engine)
            roll = Subspace(schema, rollup_rows, "RUP", engine=engine)
            if want is None:
                with pytest.raises(ValueError):
                    numerical_series(sub, roll, gb, "revenue", num_buckets,
                                     buckets=buckets)
                continue
            categories, x, y, used = want
            pair, got_buckets = numerical_series(
                sub, roll, gb, "revenue", num_buckets, buckets=buckets)
            assert pair.categories == categories, config
            assert got_buckets == used, config
            assert _close(pair.subspace_series, x), config
            assert _close(pair.rollup_series, y), config
            assert _splits(pair.subspace_series, pair.rollup_series) \
                == _splits(x, y), config


def test_parity_examples_reached_every_path(engines, registries):
    """Runs after the property above: its examples must have been served
    by scans, plan-cache hits, tier views and retried SQL alike."""
    for (name, config), engine in engines.items():
        registry = registries[name, config]
        cache = cache_counts(registry)
        assert cache["hits"] and cache["misses"], (name, config)
        if engine.tier is not None:
            assert engine.tier.stats.hits, (name, config)
        if config.startswith("resilient"):
            assert resilience_counts(registry)["retries"], name


def test_null_only_subspace_is_degenerate(scale_with_nulls):
    schema = scale_with_nulls
    engine = QueryEngine(schema)
    gb = schema.groupby_attribute("DimProduct", "ListPrice")
    n = schema.num_fact_rows
    nulls = Subspace(schema, tuple(range(n - 60, n)), "nulls",
                     engine=engine)
    with pytest.raises(ValueError, match="no non-null values"):
        numerical_series(nulls, Subspace.full(schema, engine=engine), gb,
                         "revenue")


def test_numeric_candidates_ride_the_fused_query(aw_online):
    """One fused query per space answers every candidate of a dimension,
    numerical ones included; re-deriving a chosen attribute's series for
    display is plan-cache hits, no backend work."""
    engine = QueryEngine(aw_online)
    customer = next(d for d in aw_online.dimensions if d.name == "Customer")
    income = aw_online.groupby_attribute("DimCustomer", "YearlyIncome")
    assert income in customer.groupbys
    sub = Subspace(aw_online, tuple(range(0, 8000, 7)), "DS'",
                   engine=engine)
    roll = Subspace.full(aw_online, engine=engine)
    ranked = rank_groupby_attributes(sub, [roll], customer.groupbys,
                                     "revenue", SURPRISE)
    assert {r.attribute for r in ranked} == set(customer.groupbys)
    # one fused statement per space (DS' + the roll-up) and no
    # single-key partition: every candidate rode a fused query
    ops = engine.counters.ops
    assert ops["MultiGroupAggregate"].calls == 2
    assert "Partition" not in ops and "GroupAggregate" not in ops
    calls = engine.counters.total_calls
    with metrics_scope(MetricsRegistry()) as registry:
        numerical_series(sub, roll, income, "revenue")
    assert engine.counters.total_calls == calls
    assert cache_counts(registry)["hits"] == 2
    engine.close()


# ----------------------------------------------------------------------
# state: appends and budgets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", [False, True])
def test_series_include_appended_rows(tier):
    """Epoch-qualified cache keys: the numeric partitions cached before
    an append are never served after it."""
    schema = build_scale(num_facts=3000, seed=11)
    engine = QueryEngine(
        schema, materialize=(MaterializationTier(schema, admit_after=1)
                             if tier else False))
    gb = schema.groupby_attribute("DimProduct", "ListPrice")

    def series():
        full = Subspace.full(schema, engine=engine)
        pair, _ = numerical_series(full, full, gb, "revenue")
        return pair

    before = series()
    assert series() == before  # warm: plan cache / tier answers
    _append_scale_facts(schema, random.Random(4), 200, range(1, 25))
    after = series()
    plain = Subspace.full(schema, engine=LocalKernel(schema))
    _, x, y, _ = oracle_numerical_series(plain, plain, gb, "revenue")
    assert _close(after.subspace_series, x)
    assert _close(after.rollup_series, y)
    assert sum(after.subspace_series) > sum(before.subspace_series)
    engine.close()


def _shown(result):
    return {(facet.dimension, attr.attribute.ref): attr
            for facet in result.interface.facets
            for attr in facet.attributes}


def test_numeric_facet_work_is_charged_to_the_budget(aw_online):
    """A tight group budget omits the numeric facet with a diagnostics
    entry; whatever a partial result shows is what the full result
    shows (partial ⊆ full); a generous budget changes nothing."""
    session = KdapSession(aw_online, materialize=False)
    net = session.differentiate("Australia", limit=1)[0]
    full = session.explore(net)
    numeric = {key for key, attr in _shown(full).items()
               if attr.attribute.is_numerical}
    assert ("Customer", aw_online.groupby_attribute(
        "DimCustomer", "YearlyIncome").ref) in numeric
    omitted = kept = 0
    for max_groups in (1, 20, 60, 150, 400, 10**9):
        fresh = KdapSession(aw_online, materialize=False)
        result = fresh.explore(net, budget=Budget(max_groups=max_groups))
        shown = _shown(result)
        for key, attr in shown.items():
            assert attr == _shown(full)[key]
        if numeric <= set(shown):
            kept += 1
        else:
            omitted += 1
            assert result.diagnostics.partial
            assert result.diagnostics.truncations
    assert omitted and kept
    generous = KdapSession(aw_online, materialize=False).explore(
        net, budget=Budget(deadline_ms=600_000, max_rows=10**9,
                           max_groups=10**9))
    assert not generous.diagnostics.partial
    assert repr(generous.interface.facets) == repr(full.interface.facets)
