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
from repro.plan import MultiGroupAggregate, QueryEngine


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
    a ``MultiGroupAggregate`` with two or more keyed groupings answers
    that many group-bys in one scan (or SQL round-trip), and those
    executions outnumber the ones left with a lone keyed grouping.
    Plans whose groupings are all 0-key (the G(DS') totals) group by
    nothing and are not counted."""
    session = online_session_full
    ranked = session.differentiate("California Mountain Bikes", limit=1)
    net = ranked[0].star_net
    config = ExploreConfig(top_k_attributes=4, top_k_instances=4,
                           display_intervals=3)
    engine = QueryEngine(session.schema, backend="memory")
    branch_counts: list[int] = []
    execute = engine.backend.execute

    def spy(plan):
        if isinstance(plan, MultiGroupAggregate):
            keyed = sum(1 for grouping in plan.groupings if grouping)
            if keyed:
                branch_counts.append(keyed)
        return execute(plan)

    engine.backend.execute = spy

    def run():
        engine.cache.clear()
        return build_facets(session.schema, net, config=config,
                            engine=engine)

    interface = benchmark.pedantic(run, rounds=3, iterations=1)

    assert interface.facet("Product").attributes
    fused = sum(1 for count in branch_counts if count > 1)
    assert fused > 0, "facet workload must fuse"
    lone = sum(1 for count in branch_counts if count == 1)
    assert fused > lone, \
        "most facet partitions must ride multi-branch statements"
