"""Version counters must invalidate every cache layered above a table.

The write store bumps ``Table.version`` on each mutation; the encoded
read store, the star schema's derived data, the engine's epoch-qualified
plan cache, the sqlite backend's mirror and materialized views all key
their freshness off it.  Each test here mutates a table and asserts the
derived layer either rebuilds or (a materialized view after a fact
append) folds the new rows — never serves stale data.
"""

import random

import pytest

from repro.datasets.scale import build_scale
from repro.obs import MetricsRegistry, metrics_scope
from repro.plan.engine import QueryEngine
from repro.relational.chunks import CHUNK_SIZE
from repro.relational.table import Table
from repro.relational.types import float_, integer, text
from repro.resilience import create_resilient_backend
from repro.warehouse import MaterializationTier, Subspace

from ..counts import cache_counts
from ..warehouse.subspace_oracle import LocalKernel


def make_table():
    return Table("T", [integer("K", nullable=False), text("Name"),
                       float_("Price")], primary_key="K")


# ---------------------------------------------------------------------------
# the version counter itself
# ---------------------------------------------------------------------------
def test_insert_bumps_version():
    t = make_table()
    v0 = t.version
    t.insert({"K": 1, "Name": "a", "Price": 1.0})
    assert t.version == v0 + 1


def test_insert_many_bumps_version_per_row():
    t = make_table()
    v0 = t.version
    t.insert_many([{"K": i, "Name": "x", "Price": 0.5} for i in range(3)])
    assert t.version > v0


def test_load_columns_bumps_version_once():
    t = make_table()
    v0 = t.version
    t.load_columns({"K": [1, 2], "Name": ["a", "b"], "Price": [1.0, 2.0]})
    assert t.version == v0 + 1


def test_failed_insert_still_bumps_version():
    """A rolled-back duplicate-PK insert may leave the counter bumped —
    over-invalidation is safe — but must never leave rows behind."""
    t = make_table()
    t.insert({"K": 1, "Name": "a", "Price": 1.0})
    try:
        t.insert({"K": 1, "Name": "dup", "Price": 2.0})
    except Exception:
        pass
    assert len(t) == 1


# ---------------------------------------------------------------------------
# encoded read store (column chunks)
# ---------------------------------------------------------------------------
def test_column_chunks_reencode_after_insert():
    t = make_table()
    t.load_columns({"K": list(range(CHUNK_SIZE + 10)),
                    "Name": ["n"] * (CHUNK_SIZE + 10),
                    "Price": [1.0] * (CHUNK_SIZE + 10)})
    chunks = t.column_chunks("K")
    assert chunks[-1].stop == CHUNK_SIZE + 10
    assert t.column_chunks("K") is chunks  # stable while unmutated
    t.insert({"K": CHUNK_SIZE + 10, "Name": "late", "Price": 9.0})
    fresh = t.column_chunks("K")
    assert fresh is not chunks
    assert fresh[-1].stop == CHUNK_SIZE + 11
    assert fresh[-1].zone.hi == CHUNK_SIZE + 10


# ---------------------------------------------------------------------------
# star-schema fact-aligned caches
# ---------------------------------------------------------------------------
def test_schema_vectors_extend_after_append():
    schema = build_scale(num_facts=500, seed=3)
    gb = schema.groupby_attribute("DimProduct", "CategoryName")
    assert len(schema.groupby_vector(gb)) == 500
    assert len(schema.measure_vector("revenue")) == 500
    schema.database.table("FactScaleSales").insert({
        "OrderKey": 501, "ProductKey": 1, "DateKey": 20030101,
        "UnitPrice": 10.0, "Quantity": 2,
    })
    values = schema.groupby_vector(gb)
    measures = schema.measure_vector("revenue")
    assert len(values) == 501 and len(measures) == 501
    assert measures[-1] == 20.0  # the delta row was actually evaluated


def test_fact_chunks_cover_appended_rows():
    schema = build_scale(num_facts=CHUNK_SIZE + 50, seed=3)
    gb = schema.groupby_attribute("DimProduct", "CategoryName")
    before = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
    schema.database.table("FactScaleSales").insert({
        "OrderKey": CHUNK_SIZE + 51, "ProductKey": 2,
        "DateKey": 20030102, "UnitPrice": 5.0, "Quantity": 1,
    })
    after = schema.fact_chunks(gb.path_from_fact, gb.ref.column)
    assert after[-1].stop == before[-1].stop + 1


# ---------------------------------------------------------------------------
# query layers above the schema
# ---------------------------------------------------------------------------
def totals(groups: dict) -> float:
    return sum(groups.values())


def test_backend_measure_memo_not_stale_after_append():
    """Regression: the memory backend memoised measure vectors with no
    version check, so a fact append made grouped row ids index past the
    end of the stale vector (IndexError) — or worse, silently drop the
    appended rows from aggregates.  The backend now reads the schema's
    append-aware measure vector."""
    schema = build_scale(num_facts=400, seed=3)
    engine = QueryEngine(schema)
    gb = schema.groupby_attribute("DimProduct", "CategoryName")
    engine.subspace_partition_aggregates(
        Subspace.full(schema, engine=engine), gb, "revenue")
    fact = schema.database.table("FactScaleSales")
    fact.insert({"OrderKey": 401, "ProductKey": 1, "DateKey": 20030103,
                 "UnitPrice": 100.0, "Quantity": 1})
    after = engine.subspace_partition_aggregates(
        Subspace.full(schema, engine=engine), gb, "revenue")
    direct = Subspace.full(schema, engine=LocalKernel(schema)) \
        .partition_aggregates(gb, "revenue")
    assert totals(after) == totals(direct)


def test_plan_cache_epoch_rolls_over_on_any_table_mutation():
    """Plan fingerprints cannot see table contents, so the engine's
    cache keys carry an epoch (sum of table versions): mutating *any*
    table — fact or dimension — must retire cached results."""
    schema = build_scale(num_facts=400, seed=3)
    engine = QueryEngine(schema)
    gb = schema.groupby_attribute("DimProduct", "CategoryName")
    full = Subspace.full(schema, engine=engine)
    with metrics_scope(MetricsRegistry()) as registry:
        first = engine.subspace_partition_aggregates(full, gb, "revenue")
        assert cache_counts(registry)["misses"] == 1
        engine.subspace_partition_aggregates(full, gb, "revenue")
        assert cache_counts(registry)["hits"] == 1  # same epoch: cache hit
        schema.database.table("DimProduct").insert({
            "ProductKey": 999, "ProductName": "Epoch Product",
            "Color": "Red", "CategoryName": "Clothing", "ListPrice": 1.0,
        })
        second = engine.subspace_partition_aggregates(full, gb, "revenue")
    # new epoch: no stale hit
    assert cache_counts(registry)["misses"] == 2
    assert totals(first) == totals(second)  # new product sold nothing


def test_dim_mutation_invalidates_non_incremental_view():
    """Fact appends fold forward; dimension changes cannot, so the
    materialized view must detect the dim version change and rebuild."""
    schema = build_scale(num_facts=400, seed=3)
    tier = MaterializationTier(schema)
    gb = schema.groupby_attribute("DimProduct", "ProductName")
    tier.precompute("revenue", [gb])
    rng = random.Random(1)
    schema.database.table("DimProduct").insert_many([
        {"ProductKey": 900 + i, "ProductName": f"New {i}",
         "Color": "Blue", "CategoryName": "Bikes",
         "ListPrice": round(rng.uniform(1, 9), 2)} for i in range(3)])
    answer = tier.answer(gb, "revenue")
    direct = Subspace.full(schema, engine=LocalKernel(schema)) \
        .partition_aggregates(gb, "revenue")
    assert answer == direct
    assert tier.stats.rebuilds == 1 and tier.stats.refreshes == 0


# ---------------------------------------------------------------------------
# the sqlite mirror
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("wrap", [False, True], ids=["sqlite", "resilient"])
def test_sqlite_answers_follow_appends(wrap):
    """Regression: the sqlite backend loaded its mirror once, so after an
    append the new epoch missed the plan cache and the query ran on the
    old mirror.  A fact append (whose product does not exist yet) and a
    dimension append that gives it a product must both show, as on the
    memory backend."""
    schema = build_scale(num_facts=400, seed=3)
    memory = QueryEngine(schema)
    sqlite = QueryEngine(schema, backend=(create_resilient_backend(schema)
                                          if wrap else "sqlite"))
    category = schema.groupby_attribute("DimProduct", "CategoryName")
    product = schema.groupby_attribute("DimProduct", "ProductName")
    month = schema.groupby_attribute("DimDate", "MonthName")

    def answers(engine):
        full = Subspace.full(schema, engine=engine)
        return (full.aggregate("revenue"),
                full.partition_aggregates(product, "revenue"),
                engine.pivot_aggregates(full, category, month, "revenue"))

    with metrics_scope(MetricsRegistry()):
        assert answers(sqlite) == answers(memory)
        schema.database.table("FactScaleSales").insert({
            "OrderKey": 401, "ProductKey": 999, "DateKey": 20030103,
            "UnitPrice": 100.0, "Quantity": 1})
        grown = answers(sqlite)
        assert grown == answers(memory)
        schema.database.table("DimProduct").insert({
            "ProductKey": 999, "ProductName": "Appended Product",
            "Color": "Red", "CategoryName": "Clothing", "ListPrice": 1.0})
        assert answers(sqlite) == answers(memory)
    assert "Appended Product" not in grown[1]
    assert answers(memory)[1]["Appended Product"] == 100.0
    sqlite.close()
