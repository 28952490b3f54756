"""Table 2: selected attributes and attribute instances.

Regenerates the Table 2 output — the dynamically constructed Product
facet for the top "California Mountain Bikes" star net — and benchmarks
the full explore phase (subspace evaluation + roll-ups + attribute &
instance ranking + numerical annealing).

Shape check vs the paper: ProductSubcategory is promoted with the
"Mountain Bikes" entry; DealerPrice appears as merged numeric intervals;
ModelName surfaces the Mountain-* models.
"""

from repro.core import ExploreConfig, build_facets
from repro.evalkit import render_facets
from repro.plan import QueryEngine


def test_table2_facets(benchmark, online_session_full):
    session = online_session_full
    ranked = session.differentiate("California Mountain Bikes", limit=1)
    net = ranked[0].star_net
    config = ExploreConfig(top_k_attributes=4, top_k_instances=4,
                           display_intervals=3)
    engine = QueryEngine(session.schema)

    def run():
        engine.cache.clear()
        return build_facets(session.schema, net, config=config,
                            engine=engine)

    interface = benchmark.pedantic(run, rounds=3, iterations=1)

    print("\n=== Table 2: Product-dimension facet ===")
    print(render_facets(interface, dimensions=["Product"]))

    product = interface.facet("Product")
    columns = [a.attribute.ref.column for a in product.attributes]
    assert "ProductSubcategoryName" in columns
    subcat = next(a for a in product.attributes
                  if a.attribute.ref.column == "ProductSubcategoryName")
    assert subcat.promoted
    assert any(e.label == "Mountain Bikes" for e in subcat.entries)
    if "DealerPrice" in columns:
        price = next(a for a in product.attributes
                     if a.attribute.ref.column == "DealerPrice")
        assert 1 <= len(price.entries) <= 3
    if "ModelName" in columns:
        model = next(a for a in product.attributes
                     if a.attribute.ref.column == "ModelName")
        assert any(e.label.startswith("Mountain-") for e in model.entries)


def test_table2_facets_engine_fused(benchmark, online_session_full):
    """The same workload through an engine, asserting fusion engaged:
    each ``MultiGroupAggregate`` answers two or more group-bys in one
    scan (or SQL round-trip), and fused statements outnumber the
    single-key partitions left to lone branches."""
    session = online_session_full
    ranked = session.differentiate("California Mountain Bikes", limit=1)
    net = ranked[0].star_net
    config = ExploreConfig(top_k_attributes=4, top_k_instances=4,
                           display_intervals=3)
    engine = QueryEngine(session.schema, backend="memory")

    def run():
        engine.cache.clear()
        return build_facets(session.schema, net, config=config,
                            engine=engine)

    interface = benchmark.pedantic(run, rounds=3, iterations=1)

    assert interface.facet("Product").attributes
    ops = engine.counters.ops
    fused = ops["MultiGroupAggregate"].calls
    assert fused > 0, "facet workload must fuse"
    single = ops["Partition"].calls if "Partition" in ops else 0
    assert fused > single, \
        "most facet partitions must ride fused statements"
