"""Microbenchmarks of the engine primitives behind KDAP's two phases.

Not a paper artifact — a performance characterisation of this
implementation at paper scale (60k fact rows), so regressions in the hot
paths are visible:

* full-text probe of one keyword (differentiate, step 1);
* candidate generation + ranking for a 3-keyword query (differentiate);
* star-join evaluation of the top star net (explore, subspace slice);
* one categorical partition + aggregation over the subspace (explore);
* fact-aligned attribute resolution, cold cache (the underlying scan).

Star-join and partition timings go through a :class:`QueryEngine` whose
plan cache is cleared before every timed run, so they measure execution,
not memoisation.
"""

from repro.plan import QueryEngine



def test_text_probe(benchmark, online_session_full):
    hits = benchmark(online_session_full.index.search, "California",
                     30)
    assert hits


def test_differentiate_three_keywords(benchmark, online_session_full):
    ranked = benchmark(online_session_full.differentiate,
                       "Sydney Helmet Discount")
    assert ranked


def test_star_join_evaluation(benchmark, online_session_full):
    session = online_session_full
    net = session.differentiate("California Mountain Bikes",
                                limit=1)[0].star_net
    engine = QueryEngine(session.schema)

    def evaluate():
        engine.cache.clear()
        return engine.evaluate(net)

    subspace = benchmark(evaluate)
    assert len(subspace) > 0


def test_partition_aggregation(benchmark, online_session_full):
    session = online_session_full
    schema = session.schema
    net = session.differentiate("California Mountain Bikes",
                                limit=1)[0].star_net
    engine = QueryEngine(schema)
    subspace = engine.evaluate(net)
    gb = schema.groupby_attribute("DimDate", "MonthName")
    schema.groupby_vector(gb)  # warm the resolution cache

    def partition():
        engine.cache.clear()
        return subspace.partition_aggregates(gb, "revenue")

    parts = benchmark(partition)
    assert len(parts) == 12


def test_fact_vector_resolution_cold(benchmark, aw_online_full):
    schema = aw_online_full
    gb = schema.groupby_attribute("DimGeography", "StateProvinceName")

    def resolve_cold():
        # bypass the cache to measure the raw two-hop scan
        return schema.resolve_column(schema.fact_table, gb.path_from_fact,
                                     gb.ref.column)

    vector = benchmark(resolve_cold)
    assert len(vector) == schema.num_fact_rows
