"""Materialization tier: lattice roll-ups, maintenance, admission.

The tier's contract is *indistinguishability*: any aggregate it answers
— from an exact view, a lattice roll-up, or after incremental append
maintenance — must equal the direct fact-scan answer (floats to
re-association tolerance).  Parity is checked here across append
batches, backends, and budget truncation.  The tier holds full-space
views only: the engine never consults it for a keyword-selected
subspace.
"""

import json
import math
import random
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KdapSession, rollup_subspaces
from repro.datasets.scale import build_scale, load_scale
from repro.plan.engine import QueryEngine
from repro.relational.persistence import dump_database
from repro.resilience import Budget
from repro.resilience.budget import budget_scope
from repro.warehouse import MaterializationTier, Subspace

N_FACTS = 4000


def approx_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        math.isclose(a[k], b[k], rel_tol=1e-9, abs_tol=1e-9) for k in a)


def scanned(schema) -> Subspace:
    """The full space on a fresh tier-less engine: the direct fact-scan
    answer the tier must reproduce."""
    return Subspace.full(schema, engine=QueryEngine(schema))


@pytest.fixture(scope="module")
def scale():
    """Read-only scale warehouse (mutating tests build their own)."""
    return build_scale(num_facts=N_FACTS, seed=11)


@pytest.fixture()
def fresh_scale():
    return build_scale(num_facts=N_FACTS, seed=11)


# ---------------------------------------------------------------------------
# answering: exact hits and lattice roll-ups
# ---------------------------------------------------------------------------
def test_exact_hit_matches_direct_scan(scale):
    tier = MaterializationTier(scale)
    gb = scale.groupby_attribute("DimProduct", "ProductName")
    tier.precompute("revenue", [gb])
    answer = tier.answer(gb, "revenue")
    direct = scanned(scale).partition_aggregates(gb, "revenue")
    assert approx_equal(answer, direct)
    assert tier.stats.hits == 1 and tier.stats.rollup_hits == 0


def test_rollup_answers_coarser_level_from_finer_view(scale):
    tier = MaterializationTier(scale)
    fine = scale.groupby_attribute("DimProduct", "ProductName")
    coarse = scale.groupby_attribute("DimProduct", "CategoryName")
    tier.precompute("revenue", [fine])
    rolled = tier.answer(coarse, "revenue")
    direct = scanned(scale).partition_aggregates(coarse, "revenue")
    assert rolled is not None and approx_equal(rolled, direct)
    assert tier.stats.rollup_hits == 1
    # the derived view is registered: the next ask is an exact hit
    tier.answer(coarse, "revenue")
    assert tier.stats.hits == 2 and tier.stats.rollup_hits == 1


def test_rollup_refused_across_non_functional_step(scale):
    """January belongs to several years: per-month states cannot be
    re-aggregated into per-year answers, and the tier must refuse."""
    tier = MaterializationTier(scale)
    month = scale.groupby_attribute("DimDate", "MonthName")
    year = scale.groupby_attribute("DimDate", "CalendarYearName")
    tier.precompute("revenue", [month])
    assert tier.answer(year, "revenue") is None
    # materialized directly, the coarse level answers fine
    tier.precompute("revenue", [year])
    direct = scanned(scale).partition_aggregates(year, "revenue")
    assert approx_equal(tier.answer(year, "revenue"), direct)


def test_rollup_respects_domain_restriction_and_fill(scale):
    tier = MaterializationTier(scale)
    fine = scale.groupby_attribute("DimProduct", "ProductName")
    coarse = scale.groupby_attribute("DimProduct", "CategoryName")
    tier.precompute("revenue", [fine])
    domain = ("Bikes", "NoSuchCategory")
    rolled = tier.answer(coarse, "revenue", domain=domain)
    direct = scanned(scale).partition_aggregates(
        coarse, "revenue", domain=domain)
    assert approx_equal(rolled, direct)
    assert rolled["NoSuchCategory"] == direct["NoSuchCategory"]


# ---------------------------------------------------------------------------
# incremental maintenance
# ---------------------------------------------------------------------------
def append_facts(schema, rng, count):
    fact = schema.database.table("FactScaleSales")
    base = len(fact)
    fact.load_columns({
        "OrderKey": range(base + 1, base + count + 1),
        "ProductKey": [rng.randint(1, 24) for _ in range(count)],
        "DateKey": [20030101 + rng.randint(0, 27) for _ in range(count)],
        "UnitPrice": [round(rng.uniform(1, 50), 2) for _ in range(count)],
        "Quantity": [rng.randint(1, 4) for _ in range(count)],
    })


@given(batches=st.lists(st.integers(1, 300), min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_incremental_refresh_equals_from_scratch(batches, seed):
    """After randomized append batches, a view folded forward delta by
    delta answers exactly like one rebuilt from scratch."""
    schema = build_scale(num_facts=1500, seed=11)
    rng = random.Random(seed)
    tier = MaterializationTier(schema)
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    tier.precompute("revenue", [gb])
    for count in batches:
        append_facts(schema, rng, count)
        answer = tier.answer(gb, "revenue")
        direct = scanned(schema).partition_aggregates(gb, "revenue")
        assert approx_equal(answer, direct)
    assert tier.stats.refreshes == len(batches)
    assert tier.stats.refreshed_rows == sum(batches)
    assert tier.stats.rebuilds == 0


def test_refresh_cost_is_delta_rows_not_total(fresh_scale):
    schema = fresh_scale
    tier = MaterializationTier(schema)
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    tier.precompute("revenue", [gb])
    append_facts(schema, random.Random(3), 37)
    tier.answer(gb, "revenue")
    assert tier.stats.refreshed_rows == 37  # not N_FACTS + 37


def test_dimension_mutation_triggers_full_rebuild(fresh_scale):
    """A dimension append can re-map existing fact rows — not foldable —
    so the view rebuilds (and still answers correctly)."""
    schema = fresh_scale
    tier = MaterializationTier(schema)
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    tier.precompute("revenue", [gb])
    schema.database.table("DimProduct").insert({
        "ProductKey": 999, "ProductName": "Late Product",
        "Color": "Black", "CategoryName": "Bikes", "ListPrice": 9.99,
    })
    answer = tier.answer(gb, "revenue")
    direct = scanned(schema).partition_aggregates(gb, "revenue")
    assert approx_equal(answer, direct)
    assert tier.stats.rebuilds == 1


# ---------------------------------------------------------------------------
# admission policy
# ---------------------------------------------------------------------------
def test_admission_after_k_distinct_fingerprints(scale):
    tier = MaterializationTier(scale, admit_after=2)
    gb = scale.groupby_attribute("DimDate", "CalendarYearName")
    tier.note_miss(gb, "revenue", "fp-a")
    tier.note_miss(gb, "revenue", "fp-a")  # repeat: not distinct
    assert len(tier) == 0
    tier.note_miss(gb, "revenue", "fp-b")
    assert len(tier) == 1
    assert tier.answer(gb, "revenue") is not None


def test_admission_builds_finest_functional_ancestor(scale):
    """Misses at the coarse level materialize the finest level below it
    (one view then serves the whole hierarchy upward via roll-up)."""
    tier = MaterializationTier(scale, admit_after=1)
    fine = scale.groupby_attribute("DimProduct", "ProductName")
    coarse = scale.groupby_attribute("DimProduct", "CategoryName")
    tier.note_miss(coarse, "revenue", "fp")
    assert len(tier) == 1
    # the *fine* level answers as an exact hit — its view was built
    assert tier.answer(fine, "revenue") is not None
    assert tier.stats.rollup_hits == 0


# ---------------------------------------------------------------------------
# budgets and deadlines
# ---------------------------------------------------------------------------
def test_tier_answers_are_untruncated_under_row_budget(scale):
    """Maintenance and answering never charge the row budget: under a
    budget that would truncate a scan, tier answers keep full fidelity
    (they equal the UNtruncated direct answers)."""
    tier = MaterializationTier(scale)
    gb = scale.groupby_attribute("DimProduct", "ProductName")
    coarse = scale.groupby_attribute("DimProduct", "CategoryName")
    direct = scanned(scale).partition_aggregates(gb, "revenue")
    direct_coarse = scanned(scale).partition_aggregates(
        coarse, "revenue")
    with budget_scope(Budget(max_rows=10)):
        tier.precompute("revenue", [gb])
        assert approx_equal(tier.answer(gb, "revenue"), direct)
        assert approx_equal(tier.answer(coarse, "revenue"), direct_coarse)


def test_expired_deadline_skips_admission_without_corruption(scale):
    tier = MaterializationTier(scale, admit_after=1)
    gb = scale.groupby_attribute("DimProduct", "ProductName")
    with budget_scope(Budget(deadline_ms=0.0)):
        tier.note_miss(gb, "revenue", "fp")
    assert len(tier) == 0  # build aborted cleanly, no half view
    # a later unconstrained miss retries and succeeds
    tier.note_miss(gb, "revenue", "fp-2")
    assert len(tier) == 1
    assert approx_equal(tier.answer(gb, "revenue"),
                        scanned(scale).partition_aggregates(gb, "revenue"))


# ---------------------------------------------------------------------------
# engine integration (both backends)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_engine_tier_parity_and_admission(scale, backend):
    """Through the engine: distinct-fingerprint misses admit a view and
    later (fingerprint-distinct) queries are answered by the tier, equal
    to raw execution on either backend."""
    plain = QueryEngine(scale, backend=backend)
    tiered = QueryEngine(scale, backend=backend, materialize=True)
    try:
        full = Subspace.full(scale, engine=tiered)
        gb = scale.groupby_attribute("DimProduct", "ProductName")
        coarse = scale.groupby_attribute("DimProduct", "CategoryName")
        domains = [None, ("Scale Product 001", "Scale Product 002")]
        for domain in domains:  # two distinct fingerprints → admission
            assert approx_equal(
                tiered.subspace_partition_aggregates(
                    full, gb, "revenue", domain=domain),
                plain.subspace_partition_aggregates(
                    full, gb, "revenue", domain=domain))
        assert tiered.tier is not None and len(tiered.tier) >= 1
        # a fresh fingerprint at the coarse level: lattice roll-up, no scan
        assert approx_equal(
            tiered.subspace_partition_aggregates(full, coarse, "revenue"),
            plain.subspace_partition_aggregates(full, coarse, "revenue"))
        assert tiered.tier.stats.rollup_hits >= 1
    finally:
        plain.close()
        tiered.close()


def test_engine_epoch_keys_prevent_stale_results_after_append():
    """Scan/SemiJoin fingerprints do not change when tables grow; the
    epoch-qualified cache keys must stop appends serving stale entries."""
    schema = build_scale(num_facts=1000, seed=11)
    engine = QueryEngine(schema)
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    before = engine.subspace_partition_aggregates(
        Subspace.full(schema, engine=engine), gb, "revenue")
    append_facts(schema, random.Random(9), 40)
    after = engine.subspace_partition_aggregates(
        Subspace.full(schema, engine=engine), gb, "revenue")
    direct = scanned(schema).partition_aggregates(gb, "revenue")
    assert approx_equal(after, direct)
    assert not approx_equal(before, after)


def test_shared_empty_tier_instance_is_adopted(scale):
    """Regression: MaterializationTier defines __len__, so an *empty*
    shared tier is falsy — truthiness-based wiring silently dropped the
    service's cross-worker tier.  Identity must decide, not len()."""
    tier = MaterializationTier(scale, admit_after=1)
    engines = [QueryEngine(scale, materialize=tier) for _ in range(2)]
    try:
        assert all(e.tier is tier for e in engines)
        gb = scale.groupby_attribute("DimProduct", "ProductName")
        full = Subspace.full(scale, engine=engines[0])
        engines[0].subspace_partition_aggregates(full, gb, "revenue")
        assert len(tier) == 1  # admitted via engine 0...
        engines[1].subspace_partition_aggregates(
            full, gb, "revenue", domain=("Scale Product 001",))
        assert tier.stats.hits >= 1  # ...answers engine 1
    finally:
        for engine in engines:
            engine.close()


def test_fused_path_reports_misses_and_hits_tier(scale):
    engine = QueryEngine(scale, materialize=True)
    full = Subspace.full(scale, engine=engine)
    gbs = [scale.groupby_attribute("DimProduct", "ProductName"),
           scale.groupby_attribute("DimDate", "MonthName")]
    engine.multi_partition_aggregates(full, gbs, "revenue")
    assert engine.tier.stats.misses == 2
    # distinct fingerprints for the same attributes: restricted domains
    engine.multi_partition_aggregates(
        full, gbs, "revenue",
        domains=[("Scale Product 001",), ("January",)])
    assert len(engine.tier) >= 2
    fused = engine.multi_partition_aggregates(full, gbs, "revenue",
                                              domains=None)
    plain = QueryEngine(scale)
    expected = plain.multi_partition_aggregates(full, gbs, "revenue")
    for got, want in zip(fused, expected):
        assert approx_equal(got, want)


def test_tier_answers_full_space_roll_ups_only(scale, monkeypatch):
    """Facet pages over a keyword-selected subspace never reach the
    tier (no lookup, no view built, however many distinct pages); the
    roll-up space of a single-dimension query is the whole dataspace,
    and that one the tier answers, equal to a tier-less engine."""
    net = KdapSession(scale, materialize=False).differentiate(
        "Red", limit=1)[0].star_net
    assert len(net.hitted_dimensions) == 1
    tiered = QueryEngine(
        scale, materialize=MaterializationTier(scale, admit_after=1))
    plain = QueryEngine(scale)
    asked = []
    answer = tiered.tier.answer
    monkeypatch.setattr(tiered.tier, "answer",
                        lambda *a, **k: asked.append(a) or answer(*a, **k))
    product = next(d for d in scale.dimensions if d.name == "Product")
    gbs = [gb for gb in product.groupbys if not gb.is_numerical]
    names = sorted(Subspace.full(scale, engine=plain).partition_aggregates(
        gbs[0], "revenue"))

    sub = tiered.evaluate(net)
    assert 0 < len(sub.fact_rows) < scale.num_fact_rows
    for page in range(3):
        domain = None if page == 0 else tuple(names[:page])
        tiered.multi_partition_aggregates(sub, gbs, "revenue")
        tiered.subspace_partition_aggregates(sub, gbs[0], "revenue",
                                             domain=domain)
        tiered.cache.clear()
    assert asked == [] and len(tiered.tier) == 0
    assert tiered.tier.stats.misses == 0

    rup, = rollup_subspaces(scale, net, tiered)
    assert len(rup.fact_rows) == scale.num_fact_rows
    tiered.multi_partition_aggregates(rup, gbs, "revenue")  # admits
    tiered.cache.clear()
    got = tiered.multi_partition_aggregates(rup, gbs, "revenue")
    assert len(asked) == 2 * len(gbs)
    assert tiered.tier.stats.hits == len(gbs)
    want = plain.multi_partition_aggregates(
        Subspace.full(scale, engine=plain), gbs, "revenue")
    for mine, theirs in zip(got, want):
        assert approx_equal(mine, theirs)


# ---------------------------------------------------------------------------
# files from earlier releases
# ---------------------------------------------------------------------------
def test_legacy_views_side_table_still_loads(tmp_path):
    """Warehouse files written by the retired ``--materialize-views``
    flag carry a ``_repro_materialized`` side table; ``load_scale``
    ignores it and reopens the data as before."""
    schema = build_scale(num_facts=600, seed=11)
    path = str(tmp_path / "legacy.db")
    dump_database(schema.database, path)
    connection = sqlite3.connect(path)
    connection.execute(
        'CREATE TABLE "_repro_materialized" (payload TEXT)')
    connection.execute(
        'INSERT INTO "_repro_materialized" VALUES (?)',
        (json.dumps({"format": 1, "views": [{
            "fingerprint": "x", "table": "DimProduct",
            "column": "ProductName", "path": ["fk_scale_product"],
            "measure": "revenue", "aggregate": "sum", "hwm_rows": 600,
            "null_rows": 0, "groups": [["Scale Product 001", [1.0]]],
        }]}),))
    connection.commit()
    connection.close()
    loaded = load_scale(path)
    assert loaded.num_fact_rows == schema.num_fact_rows
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    assert approx_equal(
        scanned(loaded).partition_aggregates(
            loaded.groupby_attribute("DimProduct", "ProductName"),
            "revenue"),
        scanned(schema).partition_aggregates(gb, "revenue"))
